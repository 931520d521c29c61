// Package wire implements the network protocol between the PartiX
// middleware and remote DBMS nodes — gob messages over TCP, one exchange
// at a time per connection — and both node drivers. The remote one
// (Client) implements cluster.Driver over a small connection pool with
// per-operation deadlines and automatic reconnect for retry-safe
// operations, surviving transient link failures. The in-process one
// (LocalNode) is a Server minus the socket: its frames go straight to the
// decode the Client runs on received ones.
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
// telemetry) are one Request answered by one Response. OpWatch turns a
// connection of its own into a one-way stream of FrameBumps: the first
// once the node has subscribed to its engine's commits, then one per
// coalesced batch of commits, each on the wire before the write it reports
// is acknowledged, until either peer closes the connection. The two result
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
// asks for a node (DecodeSeq).
//
// A fetch frame is built the same way: Count documents in one Payload,
// their names and then their records (docWriter gives the form). Without
// Request.Keep a record leaves as it is stored, checksum trailer included;
// with it the node decodes the frame's records under the projection in one
// pass and writes each kept tree with the stream's one record encoder,
// unsealed like a query frame's items. The receiver parses the payload
// once and builds every record of the frame with one storage.DecodeBatch
// into one slab (decodeDocs), so a fetched document, like a built query
// node, keeps its whole frame's trees alive.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

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
// items, which a protocol 10 peer cannot parse; protocol 12 adds OpWatch
// and the membership filters of the statistics snapshot, which a
// coordinator must key exactly as the node does; protocol 13 ships a fetch
// frame as one Payload in place of one name and one []byte per document,
// and packs Request.Names into one string: a protocol 12 peer would read
// such a frame as empty and such a request as a fetch of every document.
const ProtocolVersion = 13

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
	// OpWatch subscribes the connection to the node's commits; the answer
	// is a FrameBumps stream that ends only with the connection.
	OpWatch
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
	// documents; names the collection lacks are skipped. The list travels
	// packed (packNames: each name's uvarint length, then its bytes), so
	// the node splits it without an allocation per name. Empty means every
	// document: the client answers a fetch of no names itself, without a
	// request.
	Names string
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
	// FrameBumps carries commit reports on an OpWatch connection.
	FrameBumps
)

// Frame is one server → client message of a streamed result. A stream
// is zero or more FrameItems/FrameDocs followed by exactly one FrameEnd
// or FrameErr; anything else (including a connection that dies first)
// is a transport error, never a truncated-but-successful result.
type Frame struct {
	Kind FrameKind
	// Count and Payload carry a frame's batch: a query frame's result
	// items (FrameItems, and FrameEnd of an OpQueryStream), Count items
	// back to back in the form itemWriter documents, or a fetch frame's
	// documents (FrameDocs, and FrameEnd of an OpFetchStream), Count
	// names and records in the form docWriter documents.
	Count   int
	Payload []byte
	Err     string
	// Total is the stream's full item/doc count, set on FrameEnd.
	Total int
	// TraceID echoes the request's correlation tag on FrameErr, so a
	// failed sub-query can be joined across coordinator and node logs.
	TraceID string
	// Trailer is set on the FrameEnd of a request that set Trace.
	Trailer *Trailer
	// Bumps are a FrameBumps' commit reports: the highest generation each
	// collection reached since the previous frame.
	Bumps []Bump
}

// Bump reports that a collection reached a mutation generation.
type Bump struct {
	Collection string
	Generation uint64
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

// decodeFrame is the one decode of a received query frame (Client.query,
// LocalNode.Query): parseItems, then DecodeSeq. The nodes alias payload.
func decodeFrame(count int, payload []byte) (xquery.Seq, error) {
	items, err := parseItems(count, payload)
	if err != nil {
		return nil, err
	}
	return DecodeSeq(items)
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

// docWriter collects a fetch frame's documents as engine.DB.Fetch hands
// them over, keeping each record as it is (Fetch keeps it valid after its
// callback), and writes them into one payload when the frame is sent
// (frame):
//
//	uvarint the size of the names that follow
//	per document, its name's uvarint length and bytes
//	per document, its record's uvarint length and bytes
//
// Without keep a record is copied verbatim, into a payload sized once per
// frame from the collected records' lengths; with it every record of the
// frame is decoded under keep by one storage.DecodeRecords, and each root
// is written by the stream's one storage.Encoder. The payload is reused
// from frame to frame: its receiver keeps nothing that aliases it
// (decodeDocs).
type docWriter struct {
	keep *xmltree.Projection
	// batch and maxBytes bound a frame: its documents, and the bytes of
	// its collected records.
	batch, maxBytes int
	docs            []fetchedDoc
	bytes           int // of the collected records
	total           int // documents collected by the stream
	payload         []byte
	enc             storage.Encoder
	// inline holds the documents of a stream of up to len(inline), which
	// then cost no allocation of their own: most semi-join fetches ship a
	// document or two.
	inline [4]fetchedDoc
}

// fetchedDoc is one collected document.
type fetchedDoc struct {
	name string
	rec  []byte
}

// add collects one document's record and reports whether its frame is
// full.
func (w *docWriter) add(name string, rec []byte) bool {
	if w.docs == nil {
		w.docs = w.inline[:0]
	}
	if len(w.docs) == cap(w.docs) { // inline is full: make room for a frame
		w.docs = append(make([]fetchedDoc, 0, max(w.batch, 2*len(w.docs))), w.docs...)
	}
	w.docs = append(w.docs, fetchedDoc{name, rec})
	w.bytes += len(rec)
	w.total++
	return len(w.docs) >= w.batch || w.bytes >= w.maxBytes
}

// frame writes the collected documents into the payload, as a frame of
// the given kind, and empties the collection. A frame of no documents has
// an empty payload. The frame's payload is valid until the next call.
func (w *docWriter) frame(kind FrameKind) (*Frame, error) {
	n := len(w.docs)
	if n == 0 {
		return &Frame{Kind: kind}, nil
	}
	names, size := 0, 0
	for _, d := range w.docs {
		names += uvarintLen(len(d.name)) + len(d.name)
		size += uvarintLen(len(d.rec)) + len(d.rec)
	}
	if w.keep != nil {
		// What a projection keeps is known only once it is encoded, and
		// the records overstate it many times over (a body cut down to
		// its spine): the kept records grow the payload as they go in.
		size = 1 << 10
	}
	w.payload = slices.Grow(w.payload[:0], uvarintLen(names)+names+size)
	w.payload = binary.AppendUvarint(w.payload, uint64(names))
	for _, d := range w.docs {
		w.payload = binary.AppendUvarint(w.payload, uint64(len(d.name)))
		w.payload = append(w.payload, d.name...)
	}
	if w.keep == nil {
		for _, d := range w.docs {
			w.payload = binary.AppendUvarint(w.payload, uint64(len(d.rec)))
			w.payload = append(w.payload, d.rec...)
		}
	} else if err := w.appendKept(); err != nil {
		return nil, err
	}
	clear(w.docs) // the engine's read buffers go with the frame
	w.docs, w.bytes = w.docs[:0], 0
	return &Frame{Kind: kind, Count: n, Payload: w.payload}, nil
}

// appendKept decodes the collected records under keep, together, and
// appends each kept tree's record to the payload.
func (w *docWriter) appendKept() error {
	var recsInline [16][]byte
	var rootsInline [16]*xmltree.Node
	recs, roots := recsInline[:0], rootsInline[:]
	if n := len(w.docs); n > len(roots) {
		recs, roots = make([][]byte, 0, n), make([]*xmltree.Node, n)
	}
	for _, d := range w.docs {
		recs = append(recs, d.rec)
	}
	if _, bad, err := storage.DecodeRecords(recs, w.keep, roots); err != nil {
		return fmt.Errorf("storage: decode %q: %w", w.docs[bad].name, err)
	}
	for _, root := range roots[:len(recs)] {
		rec := len(w.payload)
		w.payload = w.enc.Append(w.payload, root)
		w.payload = storage.PrefixLength(w.payload, rec)
	}
	return nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// decodeDocs is the one decode of a received fetch frame (Client.Fetch,
// LocalNode.Fetch): it parses the payload once, copies the names into one
// string and builds every record with one storage.DecodeBatch, into one
// []xmltree.Document whose documents it adds to col. Nothing aliases the
// payload; a fetched tree shares its frame's slabs, so a document the
// caller keeps keeps its frame's trees (at most MaxFrameBytes of records)
// alive. A frame whose payload does not parse, or whose record does not
// decode, fails with nothing added to col; a corrupt record's error names
// its document, as storage.DecodeDocument does. A frame of no documents
// has an empty payload.
func decodeDocs(col *xmltree.Collection, count int, payload []byte) error {
	if count == 0 && len(payload) == 0 {
		return nil
	}
	// Every document takes at least two bytes: its name's length and its
	// record's.
	if count < 0 || count > len(payload)/2 {
		return fmt.Errorf("wire: fetch frame declares %d documents in %d payload bytes", count, len(payload))
	}
	size, pos := binary.Uvarint(payload)
	if pos <= 0 || size > uint64(len(payload)-pos) {
		return fmt.Errorf("wire: fetch frame's names overrun its payload")
	}
	block := payload[pos : pos+int(size)]
	pos += int(size)
	docs := make([]xmltree.Document, count)
	names := string(block)
	at := 0
	for i := range docs {
		l, k := binary.Uvarint(block[at:])
		if k <= 0 || l > uint64(len(block)-at-k) {
			return fmt.Errorf("wire: fetch frame's names end after %d of %d", i, count)
		}
		at += k
		docs[i].Name = names[at : at+int(l)]
		at += int(l)
	}
	if at != len(block) {
		return fmt.Errorf("wire: %d bytes after the fetch frame's %d names", len(block)-at, count)
	}
	var inline [16][]byte
	recs := inline[:0]
	if count > len(inline) {
		recs = make([][]byte, 0, count)
	}
	for i := range count {
		l, k := binary.Uvarint(payload[pos:])
		if k <= 0 || l > uint64(len(payload)-pos-k) {
			return fmt.Errorf("wire: fetch frame's record %d overruns its payload", i)
		}
		pos += k
		recs = append(recs, payload[pos:pos+int(l):pos+int(l)])
		pos += int(l)
	}
	if pos != len(payload) {
		return fmt.Errorf("wire: %d bytes after the fetch frame's %d records", len(payload)-pos, count)
	}
	roots, err := storage.DecodeBatch(recs, nil)
	if err != nil {
		var bad *storage.RecordError
		if errors.As(err, &bad) {
			return fmt.Errorf("storage: decode %q: %w", docs[bad.Index].Name, bad.Err)
		}
		return err
	}
	col.Docs = slices.Grow(col.Docs, count)
	for i := range docs {
		docs[i].Root = roots[i]
		col.Add(&docs[i])
	}
	return nil
}

// packNames is Request.Names' form of a name list: each name's uvarint
// length, then its bytes.
func packNames(names []string) string {
	size := 0
	for _, name := range names {
		size += uvarintLen(len(name)) + len(name)
	}
	var b strings.Builder
	b.Grow(size)
	var l [binary.MaxVarintLen64]byte
	for _, name := range names {
		b.Write(l[:binary.PutUvarint(l[:], uint64(len(name)))])
		b.WriteString(name)
	}
	return b.String()
}

// splitNames unpacks Request.Names into one []string whose names alias
// packed; "" gives nil, every document.
func splitNames(packed string) ([]string, error) {
	if packed == "" {
		return nil, nil
	}
	count := 0
	for pos := 0; pos < len(packed); count++ {
		l, k := binary.Uvarint([]byte(packed[pos:])) // no copy: the bytes are only read
		if k <= 0 || l > uint64(len(packed)-pos-k) {
			return nil, fmt.Errorf("wire: packed document names overrun after %d names", count)
		}
		pos += k + int(l)
	}
	names := make([]string, count)
	pos := 0
	for i := range names {
		l, k := binary.Uvarint([]byte(packed[pos:]))
		pos += k
		names[i] = packed[pos : pos+int(l)]
		pos += int(l)
	}
	return names, nil
}
