package engine

import (
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
	"partix/internal/xquery/exec"
)

// Origins tells a streaming query's consumer where the nodes it is handed
// were decoded from, so it can ship a node by copying its stored bytes
// instead of encoding the tree again. It holds the stored records of the
// chunk the query's scans decoded last, and only those: a scan reads its
// next chunk into the buffer its last one occupied, so a record is
// dropped here before its bytes can change. A node decoded from an
// earlier chunk, or by a scan that has since decoded another, has no
// origin (Stored reports none) and is encoded from its tree.
//
// A compiled pipeline scanning through Origins (exec.Shipper) may have
// its returned nodes built as shells (xmltree.Node.Partial), which exist
// whole only as their bytes. Its scan therefore flushes the pipeline
// before dropping a chunk, so every shell reaches the consumer while its
// record is held; a shell with no origin is a fault, never a tree to
// encode. An order by, a fold, a let clause, the interpreter (whose
// fallback may scan a second collection) and a query without Origins get
// no shells.
//
// Holding the latest chunk keeps its records (at most maxChunkBytes, or
// one larger record) alive until the stream ends, beside the slabs of the
// trees decoded from them; the stream drops them when it returns.
//
// Origins also owns the read buffer of its streams' decoding scans (buf),
// so a connection, which keeps one Origins for its streams, reads every
// query's records into the same memory. The buffer is kept only up to
// maxKeptBuffer bytes. Reusing it is safe because no decoded string
// aliases a record (storage's retention rule) and a scan releases Origins
// before it overwrites the buffer. Under the race detector the stream's
// end overwrites the kept buffer with poison bytes, so a reference that
// escaped the stream reads poison rather than another query's records.
// The zero value is ready to use, and one Origins serves one stream at a
// time.
type Origins struct {
	n     int
	roots [maxChunkDocs]*xmltree.Node
	recs  [maxChunkDocs][]byte
	// heads caches each record's head (RecordHead), parsed on first use.
	heads [maxChunkDocs]recordHead
	// buf is the kept read buffer; a scan holding it leaves it nil.
	buf []byte
	// src is the source the stream runs over, kept here so handing it
	// out allocates nothing.
	src streamSource
	// pending, while a pipeline that may hold shells scans, is its
	// output to flush (exec.Shipper).
	pending exec.Flusher
}

// recordHead is a record's version byte and name table; table is nil
// until parsed.
type recordHead struct {
	version byte
	table   []byte
}

// Stored returns the bytes node n was decoded from: the version byte and
// name table of its record (storage.RecordHead) and the record's bytes
// of n's subtree. ok is false when n was not decoded whole from a record
// Origins still holds.
func (o *Origins) Stored(n *xmltree.Node) (version byte, table, node []byte, ok bool) {
	start, end, ok := n.RecordRange()
	if !ok {
		return 0, nil, nil, false
	}
	root := n.Root()
	for i, r := range o.roots[:o.n] {
		if r != root {
			continue
		}
		h := &o.heads[i]
		if h.table == nil {
			v, t, err := storage.RecordHead(o.recs[i])
			if err != nil {
				return 0, nil, nil, false
			}
			h.version, h.table = v, t
		}
		return h.version, h.table, o.recs[i][start:end], true
	}
	return 0, nil, nil, false
}

// drop forgets every record, when the stream ends and (release) before
// a scan overwrites a buffer.
func (o *Origins) drop() {
	clear(o.roots[:o.n])
	clear(o.recs[:o.n])
	clear(o.heads[:o.n])
	o.n = 0
}

// release flushes the pipeline scanning, if it may hold shells, and then
// forgets every record: before a scan overwrites a buffer.
func (o *Origins) release() error {
	if o.pending != nil && o.n > 0 {
		if err := o.pending.Flush(); err != nil {
			return err
		}
	}
	o.drop()
	return nil
}

// maxKeptBuffer is the largest read buffer Origins keeps: a full chunk,
// maxChunkBytes of records, read as whole pages, with an eighth more to
// spare for its pages' headers and its chains' unused last-page tails. A
// buffer grown for one larger record is dropped.
const maxKeptBuffer = maxChunkBytes + maxChunkBytes/8

// takeBuffer hands the kept read buffer to a scan, which gives it back
// (keepBuffer) when it ends; a scan nested inside it finds none and reads
// into a buffer of its own.
func (o *Origins) takeBuffer() []byte {
	buf := o.buf
	o.buf = nil
	return buf
}

// keepBuffer keeps a scan's read buffer for the next one, unless it is
// larger than maxKeptBuffer.
func (o *Origins) keepBuffer(buf []byte) {
	if cap(buf) <= maxKeptBuffer {
		o.buf = buf[:0]
	}
}

// end forgets every record when the stream returns, and poisons the kept
// buffer in race-detector builds.
func (o *Origins) end() {
	o.drop()
	poison(o.buf[:cap(o.buf)])
}

// hold makes a freshly decoded chunk the records Origins holds.
func (o *Origins) hold(roots []*xmltree.Node, recs [][]byte) {
	o.drop()
	o.n = copy(o.roots[:], roots)
	copy(o.recs[:], recs)
}

// streamSource is the xquery.Source a streaming query runs over: the
// DB, whose decoding scans record their chunks in origins.
type streamSource struct {
	*DB
	origins *Origins
}

// Docs implements xquery.Source.
func (s *streamSource) Docs(collection string, hint *xquery.Hint, fn func(*xmltree.Document) error) error {
	return s.scan(collection, hint, nil, scanDecode, s.origins, func(d *xmltree.Document, _ []byte) error { return fn(d) })
}

// ShipDocs implements exec.Shipper: Docs, flushing the pipeline before
// each chunk after the first drops the one before it.
func (s *streamSource) ShipDocs(collection string, hint *xquery.Hint, fn func(*xmltree.Document) error, pending exec.Flusher) error {
	s.origins.pending = pending
	defer func() { s.origins.pending = nil }()
	return s.Docs(collection, hint, fn)
}
