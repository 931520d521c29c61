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
//
// A query frame is the unit of encoding: its items travel back to back in
// one Payload (Count says how many; itemWriter gives the form), shipped
// by gob as one []byte. A result node the node's engine decoded whole
// from a stored record leaves as that record's bytes: the first one from
// a record in a frame as a copy of the record's version byte, name table
// and the node's byte range, every later one as its byte range alone,
// which borrows that earlier item's name table (ItemRange). Any other
// node is encoded from its tree by one record encoder per stream. The
// client parses the payload once and checks all of its node items on
// arrival; it builds their trees, into one slab, only when a caller first
// asks for a node (DecodeSeq). Fetch frames ship stored records verbatim,
// one []byte per document.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// ProtocolVersion is the one wire protocol generation this build speaks.
// Both peers check it on every Request/Response exchange; there is no
// fallback to an older generation. Protocol 10 frames carry version 2
// storage records (subtree extents and a checksum trailer), which a
// protocol 9 peer cannot decode; protocol 11 frames carry ItemRange
// items, which a protocol 10 peer cannot parse.
const ProtocolVersion = 11

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
	// OpFetchStream ships a collection's documents — all of them, or the
	// ones Request.Names and Request.Where select — whole or cut down to
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
	// Where, when set, restricts an OpFetchStream to the documents a
	// filter selects: the xquery.Format text of `for $v in
	// collection("c")/E where … return $v` (E the root element) over the
	// fetched collection. A node that ignored it would ship documents the
	// coordinator then joins as matches, so it is part of protocol 9.
	Where string
	// Names, when non-empty, restricts an OpFetchStream to the named
	// documents; names the collection lacks are skipped. gob sends an
	// empty list as none, so the client answers a fetch of no names
	// itself, without a request.
	Names []string
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
	Kind FrameKind
	// Count and Payload carry a query frame's result items (FrameItems,
	// and FrameEnd of an OpQueryStream): Count items back to back, in the
	// form itemWriter documents.
	Count    int
	Payload  []byte
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

// ItemKind tags a serialized result item.
type ItemKind uint8

// Result item kinds.
const (
	ItemNode ItemKind = iota
	ItemString
	ItemNumber
	ItemBool
	// ItemRange is a node item that is not a record of its own but one
	// node's bytes of a record whose name table an earlier ItemNode of
	// the same frame carries.
	ItemRange
)

// Item is one result-sequence element in wire form.
type Item struct {
	Kind ItemKind
	Str  string
	Num  float64
	Bool bool
	// Node is the binary-encoded subtree of an ItemNode (a storage
	// record) or an ItemRange (one node's bytes of a record).
	Node []byte
	// Table is, for an ItemRange, the position among the frame's node
	// items (ItemNode and ItemRange, counted from 0) of the ItemNode
	// whose version byte and name table Node's names refer to.
	Table int
}

// itemWriter appends result items to one frame payload: one kind byte
// each, then the value —
//
//	ItemString  uvarint length, the string's bytes
//	ItemNumber  8 bytes, the float64's bits little-endian
//	ItemBool    1 byte, 0 or 1
//	ItemNode    uvarint length, the subtree's storage record
//	ItemRange   uvarint table (Item.Table), uvarint length, the node's
//	            bytes in its record
//
// A node the engine decoded whole from a record origins still holds is
// written from that record's bytes, with no tree walk: the first one
// from a record in a frame as an ItemNode that copies the record's
// version byte and name table and then the node's byte range (the frame's
// copy of that table, its table entry), every later one whose record's
// head equals an entry as an ItemRange borrowing it. A copy of a table
// is made only for a node at least as large as the table, or for a shell
// (xmltree.Node.Partial), which is always shipped from its record; a
// smaller node with no entry for its table, and every node without a
// held origin, is encoded from its tree. A shell without a held origin
// fails the stream: its tree is not the node. One storage.Encoder writes
// the encoded items of a stream, straight into the payload, and the
// payload is reused from frame to frame.
type itemWriter struct {
	payload []byte
	count   int
	nodes   int // node items in the payload: the next one's Table position
	enc     storage.Encoder
	// origins, when non-nil, says where the nodes handed to add were
	// decoded from.
	origins *engine.Origins
	// tables are the frame's table entries, newest last.
	tables []tableEntry
}

// tableEntry is a record head copied into the payload by an ItemNode:
// payload[head:head+size] is its version byte and name table.
type tableEntry struct {
	node, head, size int
}

// maxTableSearch bounds how many of a frame's table entries, newest
// first, a stored node's head is compared with: a frame's nodes come from
// a scan in document order, so a record's entry is one of the newest,
// and a frame of nodes from many records does not compare each with all.
const maxTableSearch = 8

// add appends one evaluation result item. A deferred node item is
// encoded from its tree.
func (w *itemWriter) add(it xquery.Item) error {
	switch v := it.(type) {
	case *xmltree.Node:
		if v == nil {
			return fmt.Errorf("wire: cannot encode a nil node")
		}
		if !w.addStored(v) {
			if v.Partial() {
				return fmt.Errorf("wire: internal error: the record of shell <%s> is no longer held", v.Name)
			}
			w.payload = append(w.payload, byte(ItemNode))
			rec := len(w.payload)
			w.payload = w.enc.Append(w.payload, v)
			w.payload = storage.PrefixLength(w.payload, rec)
		}
		w.nodes++
	case xquery.DeferredNode:
		return w.add(v.Node())
	case string:
		w.payload = append(w.payload, byte(ItemString))
		w.payload = binary.AppendUvarint(w.payload, uint64(len(v)))
		w.payload = append(w.payload, v...)
	case float64:
		w.payload = append(w.payload, byte(ItemNumber))
		w.payload = binary.LittleEndian.AppendUint64(w.payload, math.Float64bits(v))
	case bool:
		b := byte(0)
		if v {
			b = 1
		}
		w.payload = append(w.payload, byte(ItemBool), b)
	default:
		return fmt.Errorf("wire: cannot encode item of type %T", it)
	}
	w.count++
	return nil
}

// addStored appends n from its record's bytes, when origins holds them
// and the rules above allow, and reports whether it did.
func (w *itemWriter) addStored(n *xmltree.Node) bool {
	if w.origins == nil {
		return false
	}
	version, table, node, ok := w.origins.Stored(n)
	if !ok {
		return false
	}
	for i := len(w.tables) - 1; i >= max(0, len(w.tables)-maxTableSearch); i-- {
		e := w.tables[i]
		if e.size == 1+len(table) && w.payload[e.head] == version && bytes.Equal(w.payload[e.head+1:e.head+e.size], table) {
			w.payload = append(w.payload, byte(ItemRange))
			w.payload = binary.AppendUvarint(w.payload, uint64(e.node))
			w.payload = binary.AppendUvarint(w.payload, uint64(len(node)))
			w.payload = append(w.payload, node...)
			return true
		}
	}
	if len(node) < len(table) && !n.Partial() {
		return false
	}
	w.payload = append(w.payload, byte(ItemNode))
	w.payload = binary.AppendUvarint(w.payload, uint64(1+len(table)+len(node)))
	w.tables = append(w.tables, tableEntry{node: w.nodes, head: len(w.payload), size: 1 + len(table)})
	w.payload = append(w.payload, version)
	w.payload = append(w.payload, table...)
	w.payload = append(w.payload, node...)
	return true
}

// reset empties the payload for the next frame, keeping its capacity.
func (w *itemWriter) reset() {
	w.payload, w.count, w.nodes, w.tables = w.payload[:0], 0, 0, w.tables[:0]
}

// parseItems splits a frame payload into its count items. Node items alias
// payload; nothing is allocated before count is checked against the
// payload's length, every item taking at least two bytes.
func parseItems(count int, payload []byte) ([]Item, error) {
	if count < 0 || count > len(payload)/2 {
		return nil, fmt.Errorf("wire: frame declares %d items in %d payload bytes", count, len(payload))
	}
	items := make([]Item, count)
	pos := 0
	for i := range items {
		if pos == len(payload) {
			return nil, fmt.Errorf("wire: frame payload ends after %d of %d items", i, count)
		}
		it := &items[i]
		it.Kind = ItemKind(payload[pos])
		pos++
		if it.Kind == ItemRange {
			t, n := binary.Uvarint(payload[pos:])
			if n <= 0 || t > uint64(len(payload)) {
				return nil, fmt.Errorf("wire: item %d has no table position", i)
			}
			pos += n
			it.Table = int(t)
		}
		switch it.Kind {
		case ItemNode, ItemRange, ItemString:
			l, n := binary.Uvarint(payload[pos:])
			if n <= 0 || l > uint64(len(payload)-pos-n) {
				return nil, fmt.Errorf("wire: item %d overruns the frame payload", i)
			}
			pos += n
			b := payload[pos : pos+int(l) : pos+int(l)]
			pos += int(l)
			if it.Kind != ItemString {
				it.Node = b
			} else {
				it.Str = string(b)
			}
		case ItemNumber:
			if len(payload)-pos < 8 {
				return nil, fmt.Errorf("wire: item %d overruns the frame payload", i)
			}
			it.Num = math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
			pos += 8
		case ItemBool:
			if pos == len(payload) || payload[pos] > 1 {
				return nil, fmt.Errorf("wire: item %d is not a boolean", i)
			}
			it.Bool = payload[pos] == 1
			pos++
		default:
			return nil, fmt.Errorf("wire: unknown item kind %d", it.Kind)
		}
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("wire: %d bytes after the frame's %d items", len(payload)-pos, count)
	}
	return items, nil
}

// EncodeSeq converts an evaluation result into wire items: the stream's
// own codec, run over the whole sequence as one frame. The items' Node
// records share one buffer.
func EncodeSeq(s xquery.Seq) ([]Item, error) {
	var w itemWriter
	for _, it := range s {
		if err := w.add(it); err != nil {
			return nil, err
		}
	}
	return parseItems(w.count, w.payload)
}

// DecodeSeq converts wire items back to an evaluation result, checking
// every node item at once: storage.CheckBatch, an ItemRange under the
// name table it borrows. A node item that fails the check fails the
// frame, with the error decoding it would give; one that passes comes
// back as a storage.DeferredNode over its bytes, which alias the items
// (a received frame's payload, fresh per frame). Its frame's trees are
// built, together, when one of them is first asked for (xquery.NodeOf),
// and never fail to build; until then a kept node item keeps its frame's
// payload, after that its frame's trees (at most MaxFrameBytes of
// records either way).
func DecodeSeq(items []Item) (xquery.Seq, error) {
	nodes, ranges := 0, 0
	for _, it := range items {
		switch it.Kind {
		case ItemNode:
			nodes++
		case ItemRange:
			nodes++
			ranges++
		case ItemString, ItemNumber, ItemBool:
		default:
			return nil, fmt.Errorf("wire: unknown item kind %d", it.Kind)
		}
	}
	var batch *storage.Batch
	if nodes > 0 {
		recs := make([][]byte, 0, nodes)
		var borrow []int
		if ranges > 0 {
			borrow = make([]int, 0, nodes)
		}
		for _, it := range items {
			switch it.Kind {
			case ItemNode:
				recs = append(recs, it.Node)
				if borrow != nil {
					borrow = append(borrow, -1)
				}
			case ItemRange:
				recs = append(recs, it.Node)
				borrow = append(borrow, it.Table)
			}
		}
		var err error
		if batch, err = storage.CheckBatch(recs, borrow); err != nil {
			return nil, err
		}
	}
	out := make(xquery.Seq, len(items))
	node := 0
	for i, it := range items {
		switch it.Kind {
		case ItemNode, ItemRange:
			out[i] = batch.Node(node)
			node++
		case ItemString:
			out[i] = it.Str
		case ItemNumber:
			out[i] = it.Num
		case ItemBool:
			out[i] = it.Bool
		}
	}
	return out, nil
}
