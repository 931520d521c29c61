// Package cluster provides the node abstraction PartiX coordinates: the
// Driver interface (the paper's "PartiX Driver", a uniform communication
// interface between the middleware and XML DBMS nodes) and the evaluation
// methodology of the paper's Section 5 — sub-queries timed per site, the
// response time taken as the slowest site plus a transmission time
// computed from the result size and the network speed. Both drivers, the
// in-process one and the TCP client, live in package wire, beside the
// frame format they share.
package cluster

import (
	"time"

	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Driver is a uniform interface to one XML DBMS node. The middleware only
// ever talks to drivers, so any XQuery-enabled DBMS can participate (the
// paper's "the only requirement is that they are able to process XQuery").
type Driver interface {
	// Name identifies the node.
	Name() string
	// CreateCollection declares an empty collection.
	CreateCollection(name string) error
	// StoreDocument stores one document into a collection.
	StoreDocument(collection string, doc *xmltree.Document) error
	// Query runs an XQuery expression on the node — the driver's one
	// query method. The result is delivered incrementally: yield is called
	// once per batch, in result order, from the calling goroutine; its
	// error aborts the delivery (the node stops producing) and is returned.
	// tag is a correlation identifier the node carries in its logs and
	// error reports; it costs the node nothing. With trace set the node
	// also times its processing steps (parse, plan, execute, …) and
	// returns them; the delivery itself is the same either way. The nodes
	// of one batch may share their memory (a batch is one frame, its
	// nodes decoded into one slab on first use), so keeping one of them
	// may keep its whole batch alive.
	Query(query, tag string, trace bool, yield func(xquery.Seq) error) ([]obs.Span, error)
	// Fetch retrieves the documents of a collection spec selects, in
	// document-name order, each cut down to spec.Keep, for the
	// coordinator's join reconstruction. Every document is freshly
	// decoded: the caller owns the trees and may merge them in place.
	Fetch(collection string, spec FetchSpec) (*xmltree.Collection, error)
	// CollectionStats reports document count and stored bytes.
	CollectionStats(collection string) (storage.Stats, error)
	// HasCollection reports whether the node holds the collection.
	HasCollection(collection string) bool
}

// FetchSpec says what a fetch ships of a collection. The zero value
// ships every document whole.
type FetchSpec struct {
	// Keep is the projection every shipped document is cut down to; nil
	// ships the documents whole.
	Keep *xmltree.Projection
	// Where, when set, is a filter over the fetched collection — the text
	// of `for $v in collection("c")/E where … return $v`, E the root
	// element — and only the documents it returns a binding for ship
	// (engine.DB.Fetch).
	Where string
	// Names, when non-nil, restricts the fetch to the named documents:
	// names the collection lacks are skipped, and an empty list ships
	// nothing. Only nil means every document.
	Names []string
}

// Pinger is an optional Driver extension for liveness checks. Remote
// drivers implement it with a protocol round trip; in-process nodes are
// always reachable and need not implement it.
type Pinger interface {
	// Ping verifies the node answers.
	Ping() error
}

// StatisticsProvider is an optional Driver extension for cost-based
// planning: the node returns its index-derived statistics snapshot for a
// collection (doc/byte counts, per-path cardinalities, value ranges and
// membership, and the mutation generation the snapshot describes), and
// reports every generation its collections move to, so a coordinator
// knows when a snapshot it holds is no longer current. (nil, nil) means
// the node cannot provide statistics — it runs with indexes disabled —
// and the planner falls back to union-all planning.
// A driver without this extension is treated the same way.
type StatisticsProvider interface {
	CollectionStatistics(collection string) (*engine.CollectionStatistics, error)
	// Watch subscribes sink to the node's commits. It returns once the
	// subscription is in place, having called sink.Up: every commit from
	// then on reaches sink.Bump before the node acknowledges the write
	// that made it. While the subscription is lost, between sink.Down and
	// the next sink.Up, commits may go unreported. stop ends the
	// subscription; closing the driver ends it too.
	Watch(sink WatchSink) (stop func(), err error)
}

// WatchSink receives a StatisticsProvider's commit reports. Its methods
// may be called from any goroutine, a committing writer's included, and
// must not block.
type WatchSink interface {
	// Bump reports that a collection of the node reached a generation.
	// Reports of one collection may arrive out of order.
	Bump(collection string, generation uint64)
	// Up reports that the subscription is (again) in place. Generations
	// reported before it may belong to an earlier run of the node.
	Up()
	// Down reports that the subscription was lost.
	Down()
}

// TelemetryProvider is an optional Driver extension for cluster-wide
// workload telemetry: the node returns a snapshot of its metric series
// and per-fragment heat counters for the coordinator to aggregate. A
// driver without this extension (or one returning (nil, nil)) is
// reported as unsupported by the aggregation.
type TelemetryProvider interface {
	Telemetry() (*obs.TelemetrySnapshot, error)
}

// CostModel is the communication model of Section 5: transmission time is
// payload size divided by the link speed (the paper uses Gigabit
// Ethernet), plus a fixed per-message latency.
type CostModel struct {
	// BytesPerSecond is the link speed; 0 disables transmission accounting
	// (the paper's "-NT" series).
	BytesPerSecond float64
	// MessageLatency is added once per sub-query round trip.
	MessageLatency time.Duration
}

// GigabitEthernet is the paper's link: 1 Gbit/s = 125 MB/s.
var GigabitEthernet = CostModel{BytesPerSecond: 125e6}

// NoNetwork disables transmission accounting.
var NoNetwork = CostModel{}

// Transmission returns the modeled time to move n bytes.
func (m CostModel) Transmission(n int) time.Duration {
	if m.BytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.BytesPerSecond * float64(time.Second))
}

// SubQuery is one step of a plan destined for a fragment's node: a
// decomposed query, or a fetch of the fragment's documents.
type SubQuery struct {
	Fragment string // fragment (node collection) the step targets
	Node     Driver
	// Replicas are fallback nodes holding a copy of the fragment; they
	// are tried in order when the primary fails.
	Replicas []Driver
	Query    string
	// Fetch, when set in place of Query, makes the step a fetch: the node
	// ships the documents of its collection Fetch that Spec selects,
	// through Driver.Fetch. Nothing reaches the sink; the documents land
	// in SubResult.Docs.
	Fetch string
	Spec  FetchSpec
	// Tag is the correlation identifier handed to Driver.Query.
	Tag string
	// Trace asks the serving node for its processing-step spans; they land
	// in SubResult.Spans.
	Trace bool
}

// SubResult is the measured outcome of one sub-query. A query's items
// went to the StreamSink; a fetch's documents are in Docs.
type SubResult struct {
	Fragment string
	// Node names the node that actually served the sub-query — a replica,
	// after failover, rather than the primary.
	Node      string
	ItemCount int // items produced (documents, for a fetch)
	// Elapsed is the site processing time, measured around the driver
	// call; the coordinator's own sizing of the batches (SeqBytes) is
	// excluded.
	Elapsed time.Duration
	// ResultBytes is the partial result's size (SeqBytes): the record
	// bytes its node items arrived as, the string form of its atomic
	// values.
	ResultBytes int
	// FirstFrame is the time from sub-query start to its first result
	// batch; zero for an empty result and for a fetch.
	FirstFrame time.Duration
	// Frames counts the result batches delivered.
	Frames int
	// Cancelled marks a sub-query stopped early because the sink had
	// already decided the global result (or skipped before starting).
	Cancelled bool
	// Spans are the node's processing-step timings for a traced
	// sub-query (SubQuery.Trace); nil otherwise.
	Spans []obs.Span
	// Docs holds a fetch's documents, freshly decoded and owned by the
	// caller; nil for a query.
	Docs *xmltree.Collection
}

// ExecResult aggregates sub-query executions under the paper's
// methodology.
type ExecResult struct {
	Sub []SubResult
	// ParallelTime is the slowest site's processing time: "the time spent
	// by the slowest site to produce the result".
	ParallelTime time.Duration
	// TotalWork is the sum of all site times (the resource cost).
	TotalWork time.Duration
	// TransmissionTime models shipping every sub-query and partial result
	// (a fetch ships no query text) over the coordinator's link.
	TransmissionTime time.Duration
	// FirstItem is the time from execution start until the first result
	// item reached the sink. Zero for empty results.
	FirstItem time.Duration
	// Frames is the total number of result batches delivered.
	Frames int
}

// ResponseTime is the simulated end-to-end time before result composition.
func (r *ExecResult) ResponseTime() time.Duration {
	return r.ParallelTime + r.TransmissionTime
}

func (r *ExecResult) add(sub SubResult, cost CostModel, queryBytes int) {
	r.Sub = append(r.Sub, sub)
	r.TotalWork += sub.Elapsed
	if sub.Elapsed > r.ParallelTime {
		r.ParallelTime = sub.Elapsed
	}
	r.TransmissionTime += cost.Transmission(queryBytes+sub.ResultBytes) + cost.MessageLatency
	r.Frames += sub.Frames
}

// Then folds a later round's result into r: the rounds ran one after the
// other, so their slowest-site and transmission times add, and the later
// round's SubResults follow r's. A later round is a round of fetches,
// which deliver no items, so FirstItem stays r's.
func (r *ExecResult) Then(next *ExecResult) {
	r.Sub = append(r.Sub, next.Sub...)
	r.ParallelTime += next.ParallelTime
	r.TotalWork += next.TotalWork
	r.TransmissionTime += next.TransmissionTime
	r.Frames += next.Frames
}

// SeqBytes is the size of a result sequence: for a node item a driver
// received (storage.DeferredNode, what both drivers return) its record's
// length — the bytes the frame carried for it and the memory it holds —
// which costs nothing to read, where serializing it would build its
// frame's trees; XML text for any other node; string form for atomic
// values. It is the payload size the transmission model charges for.
func SeqBytes(s xquery.Seq) int {
	total := 0
	for _, it := range s {
		switch v := it.(type) {
		case *xmltree.Node:
			total += xmltree.NodeSerializedSize(v)
		case *storage.DeferredNode:
			total += v.Len()
		default:
			total += len(xquery.ItemString(it))
		}
	}
	return total
}
