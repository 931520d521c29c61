// Package cluster provides the node abstraction PartiX coordinates: the
// Driver interface (the paper's "PartiX Driver", a uniform communication
// interface between the middleware and XML DBMS nodes), an in-process
// driver backed by the engine, and the evaluation methodology of the
// paper's Section 5 — sub-queries timed per site, the response time taken
// as the slowest site plus a transmission time computed from the result
// size and the network speed.
package cluster

import (
	"fmt"
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
	// of one batch may share their memory (a remote batch is decoded into
	// one slab), so keeping one of them may keep its whole batch alive.
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
// collection (doc/byte counts, per-path cardinalities and value ranges,
// and the mutation generation the snapshot describes). (nil, nil) means
// the node cannot provide statistics — it runs with indexes disabled —
// and the planner falls back to union-all planning.
// A driver without this extension is treated the same way.
type StatisticsProvider interface {
	CollectionStatistics(collection string) (*engine.CollectionStatistics, error)
}

// TelemetryProvider is an optional Driver extension for cluster-wide
// workload telemetry: the node returns a snapshot of its metric series
// and per-fragment heat counters for the coordinator to aggregate. A
// driver without this extension (or one returning (nil, nil)) is
// reported as unsupported by the aggregation.
type TelemetryProvider interface {
	Telemetry() (*obs.TelemetrySnapshot, error)
}

// LocalNode is an in-process driver backed by an engine.DB, used by the
// simulated cluster and by tests.
type LocalNode struct {
	name string
	db   *engine.DB
}

// NewLocalNode wraps db as a named node.
func NewLocalNode(name string, db *engine.DB) *LocalNode {
	return &LocalNode{name: name, db: db}
}

// Name implements Driver.
func (n *LocalNode) Name() string { return n.name }

// DB exposes the underlying engine (for stats in tests and benches).
func (n *LocalNode) DB() *engine.DB { return n.db }

// CreateCollection implements Driver.
func (n *LocalNode) CreateCollection(name string) error {
	return n.db.Store().CreateCollection(name)
}

// StoreDocument implements Driver.
func (n *LocalNode) StoreDocument(collection string, doc *xmltree.Document) error {
	return n.db.PutDocument(collection, doc)
}

// localStreamBatch is the batch granularity of LocalNode.Query,
// matching the wire server's default frame size.
const localStreamBatch = 256

// Query implements Driver for in-process nodes. Results flow straight
// from the engine's compiled operator pipeline in bounded chunks — the
// node never materializes the full result, so peak memory stays flat
// however large the sub-query's answer is. Queries outside the compiled
// subset materialize through the interpreter and are then re-chunked,
// preserving the same incremental composition path. A traced query
// reports the steps a remote node does minus serialize — nothing crosses
// a wire — so traces over mixed local/remote deployments stay uniform;
// the time spent inside yield is the consumer's, not the node's, and is
// left out of the execute step. The tag is unused: an in-process node
// logs through the coordinator.
func (n *LocalNode) Query(query, _ string, trace bool, yield func(xquery.Seq) error) ([]obs.Span, error) {
	e, spans, err := engine.ParseTraced(query, trace)
	if err != nil {
		return nil, err
	}
	var yielding time.Duration
	execStart := time.Now()
	total, err := n.db.StreamQueryExpr(e, nil, func(items xquery.Seq) error {
		start := time.Now()
		defer func() { yielding += time.Since(start) }()
		for len(items) > localStreamBatch {
			if err := yield(items[:localStreamBatch:localStreamBatch]); err != nil {
				return err
			}
			items = items[localStreamBatch:]
		}
		if len(items) > 0 {
			return yield(items[:len(items):len(items)])
		}
		return nil
	})
	if err != nil || !trace {
		return nil, err
	}
	return append(spans, obs.Span{
		Name: "execute", Detail: fmt.Sprintf("items=%d", total), Duration: time.Since(execStart) - yielding,
	}), nil
}

// ExecuteQuery accumulates Query's batches into one sequence, for
// callers that want a node's whole answer at once.
func (n *LocalNode) ExecuteQuery(query string) (xquery.Seq, error) {
	var out xquery.Seq
	_, err := n.Query(query, "", false, func(items xquery.Seq) error {
		out = append(out, items...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fetch implements Driver: each stored record the engine selects is
// decoded straight under spec.Keep, in document-name order, from one
// pinned snapshot.
func (n *LocalNode) Fetch(collection string, spec FetchSpec) (*xmltree.Collection, error) {
	col := xmltree.NewCollection(collection)
	err := n.db.Fetch(collection, spec.Names, spec.Where, func(name string, raw []byte) error {
		doc, err := storage.DecodeProjected(name, raw, spec.Keep)
		if err != nil {
			return err
		}
		col.Add(doc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return col, nil
}

// CollectionStats implements Driver.
func (n *LocalNode) CollectionStats(collection string) (storage.Stats, error) {
	return n.db.CollectionStats(collection)
}

// CollectionStatistics implements StatisticsProvider.
func (n *LocalNode) CollectionStatistics(collection string) (*engine.CollectionStatistics, error) {
	return n.db.CollectionStatistics(collection)
}

// HasCollection implements Driver.
func (n *LocalNode) HasCollection(collection string) bool {
	return n.db.HasCollection(collection)
}

// Telemetry implements TelemetryProvider. Only fragment heat is
// returned: an in-process node shares the coordinator's metric registry
// (obs.Default), so returning a metric snapshot too would double-count
// every series when the coordinator merges node telemetry with its own.
func (n *LocalNode) Telemetry() (*obs.TelemetrySnapshot, error) {
	return &obs.TelemetrySnapshot{Node: n.name, Heat: n.db.FragmentHeat()}, nil
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
	// ResultBytes is the partial result's size (SeqBytes): serialized
	// for what a LocalNode returns, the record bytes received for the
	// node items of a wire client.
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

// SeqBytes is the size of a result sequence: XML text for nodes, string
// form for atomic values, and for a node item a wire client received
// (storage.DeferredNode) its record's length — the bytes the link carried
// for it and the memory it holds — which costs nothing to read, where
// serializing it would build its frame's trees. It is the payload size
// the transmission model charges for.
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
