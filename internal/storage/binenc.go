package storage

import (
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
// Decoding takes two passes over the record. Pass 1 validates every byte
// and counts the nodes and text bytes to keep; nothing whose size comes
// from a count in the record is allocated before the whole record has
// validated, so a hostile child count costs no more than the bytes that
// carry it. Pass 2 re-reads the validated bytes and fills one
// []xmltree.Node slab (document order) and one []*xmltree.Node slab that
// holds every node's children as a capped window kids[a:b:b], so Append
// on a decoded node reallocates instead of overwriting a sibling's window.
// A decode is a constant handful of allocations whatever the node count.
//
// DecodeProjected keeps only what an xmltree.Projection selects. Subtrees
// it drops are walked and validated exactly like kept ones — same bytes,
// same error — but never built.
//
// Retention: every string a decoded tree hands out aliases one of two
// per-document strings, the name table's and one holding the kept text
// values. Anything that outlives the document (index tokens, element
// names) must strings.Clone what it keeps, or it pins the document's text.
const encVersion = 1

// EncodeDocument serializes a document to the binary format.
func EncodeDocument(doc *xmltree.Document) ([]byte, error) {
	if doc.Root == nil {
		return nil, fmt.Errorf("storage: encode %q: no root", doc.Name)
	}
	// Collect the name table.
	names := make(map[string]uint64)
	var table []string
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.Kind != xmltree.TextNode {
			if _, ok := names[n.Name]; !ok {
				names[n.Name] = uint64(len(table))
				table = append(table, n.Name)
			}
		}
		return true
	})

	buf := make([]byte, 0, 256)
	buf = append(buf, encVersion)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, s := range table {
		buf = appendString(buf, s)
	}
	buf = appendNode(buf, doc.Root, names)
	return buf, nil
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
	if keep.Whole() {
		keep = nil
	}
	d := decoder{buf: data, keep: keep}
	if err := d.readTable(); err != nil {
		return nil, fmt.Errorf("storage: decode %q: %w", name, err)
	}
	body := d.pos
	if _, err := d.walk(nil, true, 0); err != nil {
		return nil, fmt.Errorf("storage: decode %q: %w", name, err)
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("storage: decode %q: %d trailing bytes", name, len(data)-d.pos)
	}
	d.build = true
	d.pos = body
	d.slab = make([]xmltree.Node, d.nodes)
	d.kids = make([]*xmltree.Node, d.nodes-1)
	d.wp = len(d.kids)
	d.text.Grow(d.textBytes)
	root, _ := d.walk(nil, true, 0) // pass 1 validated these bytes
	return &xmltree.Document{Name: name, Root: root}, nil
}

const maxDecodeDepth = 10000

type decoder struct {
	buf   []byte
	pos   int
	table []string
	keep  *xmltree.Projection // the root element's projection; nil keeps everything

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

// readTable validates the name table, then slices every name out of one
// string copied from the table's bytes — the names never alias (and so
// never pin) the record itself.
func (d *decoder) readTable() error {
	v, err := d.byte()
	if err != nil {
		return err
	}
	if v != encVersion {
		return fmt.Errorf("unsupported version %d", v)
	}
	count, err := d.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(len(d.buf)-d.pos) {
		return fmt.Errorf("name table of %d entries in %d bytes", count, len(d.buf))
	}
	start := d.pos
	for i := uint64(0); i < count; i++ {
		if _, err := d.bytes(); err != nil {
			return err
		}
	}
	names := string(d.buf[start:d.pos])
	d.table = make([]string, count)
	d.pos = start
	for i := range d.table {
		l, _ := d.uvarint()
		off := d.pos - start
		d.table[i] = names[off : off+int(l)]
		d.pos += int(l)
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
