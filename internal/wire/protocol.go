// Package wire implements the network protocol between the PartiX
// middleware and remote DBMS nodes: gob messages over TCP, one exchange
// at a time per connection. The remote driver (Client) implements
// cluster.Driver over a small connection pool with per-operation
// deadlines and automatic reconnect for retry-safe operations, so a
// PartiX system can mix in-process and networked nodes freely and survive
// transient link failures.
//
// There is one protocol version and it is checked, not negotiated: every
// Request announces ProtocolVersion and every Response echoes the
// server's. A server answers a request from any other version with an
// error Response and closes the connection; a client that reads a
// Response from any other version closes the connection and fails the
// operation with *ErrProtocolMismatch, which is never retried. DialWith
// pings, so the check has passed before the first user operation.
//
// Control operations (ping, create, store, stats, has-collection,
// telemetry) are one Request answered by one Response. The two result
// operations, OpQueryStream and OpFetchStream, are one Request answered
// by a frame sequence:
//
//	FrameItems* FrameEnd   (query)      FrameDocs* FrameEnd   (fetch)
//	... or at any point    FrameErr
//
// Each frame is bounded by the batch size and the server's byte budget; a
// full batch is sent at once. FrameEnd carries the last, partial batch
// itself, so a result smaller than one batch is a single message, plus
// Total (the stream's item count, checked by the client) and, when the
// request set Trace, a Trailer with the node's
// parse/plan/execute/serialize spans. Tracing therefore changes what the
// last frame carries, never which frames are sent. The client hands each
// batch to its consumer as it arrives and may abandon the stream by
// closing the connection, which stops the node producing.
package wire

import (
	"fmt"
	"sync"

	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// ProtocolVersion is the one wire protocol generation this build speaks.
// Both peers check it on every Request/Response exchange; there is no
// fallback to an older generation.
const ProtocolVersion = 7

// ErrProtocolMismatch reports a peer that speaks a different protocol
// version, or answers a result request with something that is not a
// frame. The connection it arrived on is closed and the operation is not
// retried: a version disagreement does not heal on a fresh connection.
type ErrProtocolMismatch struct {
	Node string
	// Peer is the version the peer announced; 0 when it announced none.
	Peer uint8
}

func (e *ErrProtocolMismatch) Error() string {
	return fmt.Sprintf("wire: node %s speaks protocol version %d, this build speaks %d",
		e.Node, e.Peer, ProtocolVersion)
}

// Op identifies a request type.
type Op uint8

// Protocol operations.
const (
	OpPing Op = iota
	OpCreateCollection
	OpStoreDocument
	OpStats
	OpHasCollection
	// OpQueryStream runs a query; the answer is a frame sequence.
	OpQueryStream
	// OpFetchStream ships a collection's documents, whole or cut down to
	// Request.Keep, as a frame sequence.
	OpFetchStream
	// OpTelemetry pulls the node's telemetry snapshot (metric series and
	// per-fragment heat) for cluster-wide aggregation.
	OpTelemetry
)

// streams reports whether the operation is answered by a frame sequence
// instead of one Response.
func (op Op) streams() bool { return op == OpQueryStream || op == OpFetchStream }

// retrySafe marks the operations a client may transparently re-issue on
// a fresh connection after a transport failure: reads plus the liveness
// ping. Mutations (OpCreateCollection, OpStoreDocument) are excluded
// because a lost response leaves their outcome on the node unknown.
// Streaming ops are retry-safe only until their first frame has been
// delivered to the consumer; the client enforces that separately.
var retrySafe = map[Op]bool{
	OpPing:          true,
	OpStats:         true,
	OpHasCollection: true,
	OpQueryStream:   true,
	OpFetchStream:   true,
	OpTelemetry:     true,
}

// Request is one client → server message.
type Request struct {
	Op         Op
	Collection string
	DocName    string
	DocData    []byte // binary-encoded document (storage format)
	Query      string
	// Proto announces the client's protocol version; the server rejects
	// any value other than its own ProtocolVersion.
	Proto uint8
	// BatchItems asks the server to cap streamed frames at this many
	// items/documents each; 0 accepts the server's default. The server
	// clamps it against its own limits.
	BatchItems int
	// TraceID is the coordinator's correlation tag for the query: the
	// server echoes it on FrameErr and writes it into its flight-recorder
	// entry, so a failed or slow sub-query joins across coordinator and
	// node logs. It costs the node nothing; empty when the coordinator
	// tags nothing.
	TraceID string
	// Trace asks the node to time its processing steps and return them in
	// the FrameEnd trailer.
	Trace bool
	// WantStatistics asks OpStats to also return the planner statistics
	// snapshot (Response.Statistics).
	WantStatistics bool
	// Tenant is the client-supplied tenant tag the server's admission
	// control debits quotas against; empty when the client is untagged.
	Tenant string
	// Keep is the projection an OpFetchStream cuts every document down to
	// (xmltree.Projection's String form); empty ships the stored records
	// as they are. A node that ignores it ships whole documents — a
	// superset of what was asked, which the coordinator evaluates
	// correctly — so the field needs no protocol version of its own.
	Keep string
}

// Response is the server → client answer to a control operation.
type Response struct {
	Err   string
	Stats storage.Stats
	Bool  bool
	// Proto announces the server's protocol version; the client rejects
	// any value other than its own ProtocolVersion.
	Proto uint8
	// Statistics is the planner statistics snapshot, attached to an
	// OpStats response when the client asked for it (WantStatistics).
	Statistics *engine.CollectionStatistics
	// Telemetry is the node's telemetry snapshot, attached to an
	// OpTelemetry response.
	Telemetry *obs.TelemetrySnapshot
}

// FrameKind tags one message of a streamed result. The zero value is
// deliberately invalid: a Response mis-decoded as a Frame (or any stray
// message) yields kind 0 and is rejected instead of being mistaken for
// an empty items frame.
type FrameKind uint8

// Streamed-result frame kinds.
const (
	frameInvalid FrameKind = iota
	// FrameItems carries one batch of result items (OpQueryStream).
	FrameItems
	// FrameDocs carries one batch of documents (OpFetchStream).
	FrameDocs
	// FrameEnd terminates a successful stream. It carries the last,
	// partial batch (possibly empty), Total for an end-to-end integrity
	// check, and the Trailer when the request asked for one.
	FrameEnd
	// FrameErr terminates a failed stream with the node's error.
	FrameErr
)

// Frame is one server → client message of a streamed result. A stream
// is zero or more FrameItems/FrameDocs followed by exactly one FrameEnd
// or FrameErr; anything else (including a connection that dies first)
// is a transport error, never a truncated-but-successful result.
type Frame struct {
	Kind     FrameKind
	Items    []Item
	DocNames []string
	Docs     [][]byte
	Err      string
	// Total is the stream's full item/doc count, set on FrameEnd.
	Total int
	// TraceID echoes the request's correlation tag on FrameErr, so a
	// failed sub-query can be joined across coordinator and node logs.
	TraceID string
	// Trailer is set on the FrameEnd of a request that set Trace.
	Trailer *Trailer
}

// Trailer is the end-of-stream summary of a traced query.
type Trailer struct {
	// Spans are the node's processing steps in order: parse, plan,
	// execute, serialize. Durations are relative, so node clock skew
	// never corrupts the coordinator's span tree.
	Spans []obs.Span
}

// itemBatchPool recycles the []Item scratch slices the server encodes
// frames into (the storage page-buffer pooling pattern): a streaming
// query emits many short-lived batches, and pooling them keeps the
// per-frame allocation count flat. Buffers are handed to gob for
// encoding and reused only after Encode returns, so sharing is safe.
var itemBatchPool = sync.Pool{
	New: func() any { b := make([]Item, 0, 256); return &b },
}

func getItemBatch() *[]Item {
	return itemBatchPool.Get().(*[]Item)
}

func putItemBatch(b *[]Item) {
	resetItemBatch(b)
	itemBatchPool.Put(b)
}

// resetItemBatch empties the batch in place for the next frame.
func resetItemBatch(b *[]Item) {
	for i := range *b {
		(*b)[i] = Item{} // drop references so pooled frames don't pin node data
	}
	*b = (*b)[:0]
}

// ItemKind tags a serialized result item.
type ItemKind uint8

// Result item kinds.
const (
	ItemNode ItemKind = iota
	ItemString
	ItemNumber
	ItemBool
)

// Item is one result-sequence element in wire form.
type Item struct {
	Kind ItemKind
	Str  string
	Num  float64
	Bool bool
	Node []byte // binary-encoded subtree for ItemNode
}

// EncodeItem converts one evaluation result item into wire form.
func EncodeItem(it xquery.Item) (Item, error) {
	switch v := it.(type) {
	case *xmltree.Node:
		data, err := storage.EncodeDocument(&xmltree.Document{Name: "item", Root: v})
		if err != nil {
			return Item{}, err
		}
		return Item{Kind: ItemNode, Node: data}, nil
	case string:
		return Item{Kind: ItemString, Str: v}, nil
	case float64:
		return Item{Kind: ItemNumber, Num: v}, nil
	case bool:
		return Item{Kind: ItemBool, Bool: v}, nil
	default:
		return Item{}, fmt.Errorf("wire: cannot encode item of type %T", it)
	}
}

// DecodeItem converts one wire item back to an evaluation result item.
func DecodeItem(it Item) (xquery.Item, error) {
	switch it.Kind {
	case ItemNode:
		doc, err := storage.DecodeDocument("item", it.Node)
		if err != nil {
			return nil, err
		}
		return doc.Root, nil
	case ItemString:
		return it.Str, nil
	case ItemNumber:
		return it.Num, nil
	case ItemBool:
		return it.Bool, nil
	default:
		return nil, fmt.Errorf("wire: unknown item kind %d", it.Kind)
	}
}

// wireBytes approximates the item's on-wire size, used to cap frames at
// the server's byte budget.
func (it Item) wireBytes() int {
	return len(it.Node) + len(it.Str) + 16
}

// EncodeSeq converts an evaluation result into wire items.
func EncodeSeq(s xquery.Seq) ([]Item, error) {
	out := make([]Item, 0, len(s))
	for _, it := range s {
		wi, err := EncodeItem(it)
		if err != nil {
			return nil, err
		}
		out = append(out, wi)
	}
	return out, nil
}

// DecodeSeq converts wire items back to an evaluation result.
func DecodeSeq(items []Item) (xquery.Seq, error) {
	out := make(xquery.Seq, 0, len(items))
	for _, it := range items {
		v, err := DecodeItem(it)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
