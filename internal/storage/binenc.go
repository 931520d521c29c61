package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"partix/internal/xmltree"
)

// Binary document encoding. The format keeps node IDs (the reconstruction
// join key) and compresses repeated element names through a string table:
//
//	[version byte = 1]
//	[name table: varint count, then varint-length strings]
//	[node]
//
//	node := [kind byte][id uvarint][nameRef uvarint]      (element/attribute)
//	        [childCount uvarint][children ...]
//	node := [kind byte][id uvarint][value string]          (text)
//
// Decoding a document is the per-tree "parse" cost of the engine: the
// store never caches decoded trees, reproducing the per-document
// pre-processing overhead the paper attributes to eXist (Section 5).
//
// Decoding takes two passes over the records it is given: one for
// DecodeDocument and DecodeProjected, a frame's worth for DecodeBatch, an
// engine scan's chunk of candidates for DecodeRecords. Pass
// 1 validates every byte of every record and counts the nodes and text
// bytes to keep; nothing whose size comes from a count in a record is
// allocated before all of them have validated, so a hostile child count
// costs no more than the bytes that carry it. Pass 2 re-reads the validated
// bytes and fills one []xmltree.Node slab (document order, record after
// record) and one []*xmltree.Node slab that holds every node's children as
// a capped window kids[a:b:b], so Append on a decoded node reallocates
// instead of overwriting a sibling's window — or another record's. A
// decode is a constant handful of allocations whatever the node or record
// count: a record whose name table repeats the previous record's shares
// its strings, and every other table is copied into one names arena.
//
// DecodeProjected keeps only what an xmltree.Projection selects. Subtrees
// it drops are walked and validated exactly like kept ones — same bytes,
// same error — but never built.
//
// Retention: every string a decoded tree hands out aliases a name table's
// string or the one string holding all kept text values of the records
// decoded together; none aliases the input records, so a caller may reuse
// their buffer once the decode returns. Anything that outlives the tree
// (index tokens, element names) must strings.Clone what it keeps, or it
// pins that text; a tree of a batch keeps the whole batch's slabs alive.
// For an engine scan the batch is a chunk of candidates, so a node a query
// keeps pins the slabs of at most 64 documents and 256 KiB of records, or
// of the one larger record (engine.Docs); a node serving over TCP drops
// them once the result frame holding the node is encoded.
const encVersion = 1

// Encoder writes records in the binary format. It keeps its name map and
// table across records, so encoding a stream of trees allocates nothing
// once they have grown to the largest tree's names. The zero value is
// ready to use; an Encoder is not safe for concurrent use.
type Encoder struct {
	names map[string]uint64
	table []string
}

// Append appends root's record to buf and returns the extended buffer.
func (e *Encoder) Append(buf []byte, root *xmltree.Node) []byte {
	if e.names == nil {
		e.names = make(map[string]uint64)
	}
	clear(e.names)
	e.table = collectNames(e.names, e.table[:0], root)
	return appendRecord(buf, root, e.names, e.table)
}

// EncodeDocument serializes a document to the binary format: an Encoder's
// one-shot use, whose name map the compiler can keep off the heap.
func EncodeDocument(doc *xmltree.Document) ([]byte, error) {
	if doc.Root == nil {
		return nil, fmt.Errorf("storage: encode %q: no root", doc.Name)
	}
	names := make(map[string]uint64)
	table := collectNames(names, nil, doc.Root)
	return appendRecord(make([]byte, 0, 256), doc.Root, names, table), nil
}

// collectNames numbers the element and attribute names of n's subtree in
// document order, appending each new one to table.
func collectNames(names map[string]uint64, table []string, n *xmltree.Node) []string {
	if n.Kind == xmltree.TextNode {
		return table
	}
	if _, ok := names[n.Name]; !ok {
		names[n.Name] = uint64(len(table))
		table = append(table, n.Name)
	}
	for _, c := range n.Children {
		table = collectNames(names, table, c)
	}
	return table
}

// appendRecord appends root's record under the name table collectNames
// built for it.
func appendRecord(buf []byte, root *xmltree.Node, names map[string]uint64, table []string) []byte {
	buf = append(buf, encVersion)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, s := range table {
		buf = appendString(buf, s)
	}
	return appendNode(buf, root, names)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendNode(buf []byte, n *xmltree.Node, names map[string]uint64) []byte {
	buf = append(buf, byte(n.Kind))
	buf = binary.AppendUvarint(buf, uint64(n.ID))
	if n.Kind == xmltree.TextNode {
		return appendString(buf, n.Value)
	}
	buf = binary.AppendUvarint(buf, names[n.Name])
	buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
	for _, c := range n.Children {
		buf = appendNode(buf, c, names)
	}
	return buf
}

// DecodeDocument parses the binary format back into a document tree.
func DecodeDocument(name string, data []byte) (*xmltree.Document, error) {
	return DecodeProjected(name, data, nil)
}

// DecodeProjected parses the binary format into the part of the document
// keep selects (nil keeps everything). The record is validated in full
// either way: a projection never changes which records decode, nor the
// error a corrupt one reports.
func DecodeProjected(name string, data []byte, keep *xmltree.Projection) (*xmltree.Document, error) {
	var root [1]*xmltree.Node
	if _, err := DecodeRecords([][]byte{data}, keep, root[:]); err != nil {
		return nil, fmt.Errorf("storage: decode %q: %w", name, err)
	}
	return &xmltree.Document{Name: name, Root: root[0]}, nil
}

// DecodeBatch parses many records at once into whole trees that share one
// node slab, one child-pointer slab and one text string: the same walk as
// DecodeDocument, run over every record in each pass. A corrupt record
// fails the batch with the error DecodeDocument reports for it under the
// name "record i", i its position in recs.
func DecodeBatch(recs [][]byte) ([]*xmltree.Node, error) {
	roots := make([]*xmltree.Node, len(recs))
	if i, err := DecodeRecords(recs, nil, roots); err != nil {
		return nil, fmt.Errorf("storage: decode \"record %d\": %w", i, err)
	}
	return roots, nil
}

// DecodeRecords parses many records at once, each into the part keep
// selects (nil keeps everything), storing record i's root into roots[i]
// (len(roots) must be at least len(recs)). The trees share one node slab,
// one child-pointer slab and one text string. On failure it returns the
// position of the first corrupt record and that record's error, unwrapped:
// the caller names the record. DecodeProjected and DecodeBatch are its
// one-record and whole-tree cases.
func DecodeRecords(recs [][]byte, keep *xmltree.Projection, roots []*xmltree.Node) (int, error) {
	if keep.Whole() {
		keep = nil
	}
	d := decoder{keep: keep}
	d.sizeTables(recs)
	arena := d.arena
	for i, rec := range recs {
		d.buf, d.pos = rec, 0
		if err := d.readTable(); err != nil {
			return i, err
		}
		if _, err := d.walk(nil, true, 0); err != nil {
			return i, err
		}
		if d.pos != len(rec) {
			return i, fmt.Errorf("%d trailing bytes", len(rec)-d.pos)
		}
	}
	d.build = true
	d.slab = make([]xmltree.Node, d.nodes)
	d.kids = make([]*xmltree.Node, d.nodes-len(recs)) // every kept node but the roots is a child
	d.wp = len(d.kids)
	d.text.Grow(d.textBytes)
	d.arena, d.tableRaw = arena, nil // replay pass 1's tables
	for i, rec := range recs {
		d.buf, d.pos = rec, 0
		_ = d.readTable()                  // pass 1 validated these bytes
		roots[i], _ = d.walk(nil, true, 0) // and these
	}
	return 0, nil
}

const maxDecodeDepth = 10000

type decoder struct {
	buf   []byte
	pos   int
	table []string
	// tableRaw is the current table's bytes, count included: a record
	// whose table bytes equal them reuses table.
	tableRaw []byte
	keep     *xmltree.Projection // the root element's projection; nil keeps everything

	// The names arena: every distinct table's bytes, copied once, and
	// the strings sliced from them (sizeTables sizes both).
	names strings.Builder
	arena []string

	// Pass 1 totals: what pass 2 builds.
	nodes, textBytes int

	// Pass 2 state. kids is used from both ends: completed children wait
	// on a stack growing up from kids[0] (sp) until their parent
	// completes, then move into the parent's window, allocated downward
	// from the top (wp). Every built node but the root is in exactly one
	// of the two regions, so they never collide.
	build  bool
	slab   []xmltree.Node
	next   int // next free slab slot
	kids   []*xmltree.Node
	sp, wp int
	text   strings.Builder // kept text values, grown once to their total: never reallocated
}

// sizeTables grows the names arena to hold every distinct name table of
// recs — distinct meaning its bytes differ from the previous record's —
// so readTable fills it without reallocating: a batch's tables cost two
// allocations, whatever the number of records. It stops at the first table
// that does not validate; pass 1 fails there and fills no later table.
func (d *decoder) sizeTables(recs [][]byte) {
	var prev []byte
	size, entries := 0, 0
	for _, rec := range recs {
		d.buf, d.pos = rec, 0
		raw, count, err := d.scanTable()
		if err != nil {
			break
		}
		if !bytes.Equal(raw, prev) {
			size += len(raw)
			entries += int(count)
		}
		prev = raw
	}
	d.names.Grow(size)
	d.arena = make([]string, entries)
}

// scanTable validates the version byte and the name table, leaving pos at
// the root node, and returns the table's bytes (its count included) and
// its entry count.
func (d *decoder) scanTable() ([]byte, uint64, error) {
	v, err := d.byte()
	if err != nil {
		return nil, 0, err
	}
	if v != encVersion {
		return nil, 0, fmt.Errorf("unsupported version %d", v)
	}
	head := d.pos
	count, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if count > uint64(len(d.buf)-d.pos) {
		return nil, 0, fmt.Errorf("name table of %d entries in %d bytes", count, len(d.buf))
	}
	for i := uint64(0); i < count; i++ {
		if _, err := d.bytes(); err != nil {
			return nil, 0, err
		}
	}
	return d.buf[head:d.pos], count, nil
}

// readTable validates the record's name table and makes it d.table. A
// table whose bytes equal the previous record's keeps its strings; any
// other takes the next entries of the names arena — in pass 1 it copies
// the table's bytes into the arena and slices them there, so names never
// alias (and so never pin) the record itself; pass 2, replaying the same
// records, finds them filled.
func (d *decoder) readTable() error {
	raw, count, err := d.scanTable()
	if err != nil {
		return err
	}
	if bytes.Equal(raw, d.tableRaw) {
		return nil
	}
	d.tableRaw = raw
	d.table, d.arena = d.arena[:count:count], d.arena[count:]
	if d.build {
		return nil
	}
	d.names.Write(raw)
	names := d.names.String()
	names = names[len(names)-len(raw):]
	_, pos := binary.Uvarint(raw) // the count
	for i := range d.table {
		l, n := binary.Uvarint(raw[pos:])
		pos += n
		d.table[i] = names[pos : pos+int(l)]
		pos += int(l)
	}
	return nil
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("storage: truncated record")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: bad varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

// bytes reads a length-prefixed byte string, aliasing the record.
func (d *decoder) bytes() ([]byte, error) {
	l, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if l > uint64(len(d.buf)-d.pos) {
		return nil, fmt.Errorf("storage: string of %d bytes at offset %d overruns record", l, d.pos)
	}
	b := d.buf[d.pos : d.pos+int(l)]
	d.pos += int(l)
	return b, nil
}

// walk consumes one node and its subtree. parent is the projection of the
// node's parent (nil: kept whole) and parentKept whether the parent is
// kept at all; the root is always kept under d.keep. Pass 1 validates and
// counts what to keep; pass 2 builds it and returns the node, nil when the
// projection drops it.
func (d *decoder) walk(parent *xmltree.Projection, parentKept bool, depth int) (*xmltree.Node, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("storage: tree deeper than %d", maxDecodeDepth)
	}
	b, err := d.byte()
	if err != nil {
		return nil, err
	}
	kind := xmltree.Kind(b)
	id, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	switch kind {
	case xmltree.TextNode:
		raw, err := d.bytes()
		if err != nil || !parentKept {
			return nil, err
		}
		if !d.build {
			d.nodes++
			d.textBytes += len(raw)
			return nil, nil
		}
		n := d.alloc(kind, id)
		d.text.Write(raw)
		s := d.text.String()
		n.Value = s[len(s)-len(raw):]
		return n, nil
	case xmltree.ElementNode, xmltree.AttributeNode:
		ref, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ref >= uint64(len(d.table)) {
			return nil, fmt.Errorf("storage: name ref %d outside table of %d", ref, len(d.table))
		}
		name := d.table[ref]
		count, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if count > uint64(len(d.buf)-d.pos) {
			return nil, fmt.Errorf("storage: child count %d overruns record", count)
		}
		var keep *xmltree.Projection // attributes are always kept whole
		kept := parentKept
		switch {
		case depth == 0:
			keep = d.keep
		case kept && kind == xmltree.ElementNode:
			keep, kept = parent.Child(name)
		}
		var n *xmltree.Node
		if kept {
			if d.build {
				n = d.alloc(kind, id)
				n.Name = name
			} else {
				d.nodes++
			}
		}
		top := d.sp
		for i := uint64(0); i < count; i++ {
			c, err := d.walk(keep, kept, depth+1)
			if err != nil {
				return nil, err
			}
			if c != nil {
				c.Parent = n
				d.kids[d.sp] = c
				d.sp++
			}
		}
		if m := d.sp - top; m > 0 {
			lo := d.wp - m
			copy(d.kids[lo:d.wp], d.kids[top:d.sp])
			n.Children = d.kids[lo:d.wp:d.wp]
			d.wp, d.sp = lo, top
		}
		return n, nil
	default:
		return nil, fmt.Errorf("storage: unknown node kind %d", b)
	}
}

// alloc hands out the next slab node (pass 2, document order).
func (d *decoder) alloc(kind xmltree.Kind, id uint64) *xmltree.Node {
	n := &d.slab[d.next]
	d.next++
	n.Kind = kind
	n.ID = xmltree.NodeID(id)
	return n
}
