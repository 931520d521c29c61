package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"

	"partix/internal/xmltree"
)

// Binary document encoding. The format keeps node IDs (the reconstruction
// join key) and compresses repeated element names through a string table:
//
//	record := [version byte = 2, | sealedFlag when sealed]
//	          [name table: uvarint count, then uvarint-length strings]
//	          [node]
//	          [crc32c: 4 bytes little-endian, Castagnoli, of every byte before it]?
//
//	node := [kind byte][id uvarint][nameRef uvarint]      (element/attribute)
//	        [childCount uvarint][extent uvarint]?
//	        [children ...]
//	node := [kind byte][id uvarint][value string]          (text)
//
// A non-root element whose children encode to at least minExtent bytes
// sets extentFlag in its kind byte and carries an extent: the byte length
// of its children. Nothing else carries one: a small document has none.
//
// A sealed record ends with the checksum trailer. Every record the store
// keeps is sealed (EncodeDocument). A result frame's node items are not
// (Encoder.Append): they are built for one transfer and read once, and
// on frames of small items (horiz_small_point's) the trailer added 7 % to
// the wire bytes.
//
// Version 1 records have neither extents nor the trailer; they decode
// through the same walk and are rewritten as version 2 when their
// document is next put.
//
// Decoding a document is the per-tree "parse" cost of the engine: the
// store never caches decoded trees, reproducing the per-document
// pre-processing overhead the paper attributes to eXist (Section 5).
//
// Decoding takes two passes over the records it is given: one for
// DecodeDocument and DecodeProjected, a frame's worth for DecodeBatch, an
// engine scan's chunk of candidates for DecodeRecords. A sealed record's
// checksum is checked first, so corruption anywhere in it, a text value
// included, fails the decode with ErrChecksum whatever the projection.
// Pass 1 then validates the structure of every record and counts the
// nodes and text bytes to keep; nothing whose size comes from a count in a
// record is allocated before all of them have validated, so a hostile
// child count costs no more than the bytes that carry it. Pass 1 is the
// decoder's check and pass 2 its build: CheckBatch runs the check alone,
// and its Batch runs the build when a node is first asked for. Pass 2
// re-reads the validated bytes and fills one []xmltree.Node slab (document
// order, record after record) and one []*xmltree.Node slab that holds
// every node's children as a capped window kids[a:b:b], so Append on a
// decoded node reallocates instead of overwriting a sibling's window — or
// another record's. A decode is a constant handful of allocations whatever
// the node or record count: a record whose name table repeats the previous
// record's shares its strings, and every other table is copied into one
// names arena — by pass 1 under a projection, which resolves names; by
// pass 2 of a whole decode, whose pass 1 checks name references against
// each table's entry count alone.
//
// DecodeProjected keeps only what an xmltree.Projection selects. A dropped
// element with an extent is skipped in both passes, after checking that
// the extent stays inside its parent's bytes; its children are never
// read. Every other dropped subtree is walked and validated like a kept
// one, but never built. An element the walk does descend into must have
// children that fill its extent exactly, so a whole decode still rejects
// every wrong extent, and a projected decode succeeds wherever the whole
// decode does, building the projection of the whole tree.
//
// Under a projection read WithShells (a stream whose consumer ships the
// nodes it returns as their stored bytes), an element the trie marks
// shipped is built as a shell: the element with its byte range and
// Node.Partial set, holding only the element children its trie names,
// none of its text or attributes; its other children are walked and
// validated in pass 1, skipped in pass 2 and never built. A shipped
// element smaller than its record's name table is built whole instead,
// as its consumer would encode it from its tree rather than copy the
// table: pass 1 walks it as a shell, measures it, counts it whole if it
// is too small, and records the outcome for pass 2.
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
const encVersion = 2

const (
	// sealedFlag marks, in the version byte, a record that ends with the
	// checksum trailer.
	sealedFlag = 0x80
	// extentFlag marks, in a version 2 element's kind byte, an element
	// that carries an extent.
	extentFlag = 0x80
	// minExtent is the children size from which an element carries an
	// extent. Below it a subtree is a handful of nodes, walked about as
	// fast as skipped, and the extent's bytes would be waste. It gives
	// the large Items' PictureList and PricesHistory and the articles'
	// body and sections an extent, and no small Item one.
	minExtent = 1 << 10
	// trailerSize is the checksum trailer of a sealed record.
	trailerSize = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a sealed record whose bytes do not match its
// checksum trailer.
var ErrChecksum = errors.New("storage: record checksum mismatch")

// Encoder writes records in the binary format. It keeps its name map and
// table across records, so encoding a stream of trees allocates nothing
// once they have grown to the largest tree's names. The zero value is
// ready to use; an Encoder is not safe for concurrent use.
type Encoder struct {
	names map[string]uint64
	table []string
}

// Append appends root's unsealed record to buf and returns the extended
// buffer: a result frame's item.
func (e *Encoder) Append(buf []byte, root *xmltree.Node) []byte {
	if e.names == nil {
		e.names = make(map[string]uint64)
	}
	clear(e.names)
	e.table = collectNames(e.names, e.table[:0], root)
	return appendRecord(buf, root, e.names, e.table, false)
}

// EncodeDocument serializes a document to a sealed record, the form the
// store keeps: an Encoder's one-shot use, whose name map the compiler can
// keep off the heap.
func EncodeDocument(doc *xmltree.Document) ([]byte, error) {
	if doc.Root == nil {
		return nil, fmt.Errorf("storage: encode %q: no root", doc.Name)
	}
	names := make(map[string]uint64)
	table := collectNames(names, nil, doc.Root)
	return appendRecord(make([]byte, 0, 256), doc.Root, names, table, true), nil
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
// built for it, sealed or not.
func appendRecord(buf []byte, root *xmltree.Node, names map[string]uint64, table []string, sealed bool) []byte {
	start := len(buf)
	if sealed {
		buf = append(buf, encVersion|sealedFlag)
	} else {
		buf = append(buf, encVersion)
	}
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, s := range table {
		buf = appendString(buf, s)
	}
	buf = appendNode(buf, root, names, false)
	if !sealed {
		return buf
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendNode appends n's subtree; skippable says whether n may carry an
// extent (the root never does: it is never skipped).
func appendNode(buf []byte, n *xmltree.Node, names map[string]uint64, skippable bool) []byte {
	at := len(buf)
	buf = append(buf, byte(n.Kind))
	buf = binary.AppendUvarint(buf, uint64(n.ID))
	if n.Kind == xmltree.TextNode {
		return appendString(buf, n.Value)
	}
	buf = binary.AppendUvarint(buf, names[n.Name])
	buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
	kids := len(buf)
	for _, c := range n.Children {
		buf = appendNode(buf, c, names, true)
	}
	if skippable && n.Kind == xmltree.ElementNode && len(buf)-kids >= minExtent {
		buf[at] |= extentFlag
		buf = PrefixLength(buf, kids)
	}
	return buf
}

// PrefixLength inserts the uvarint length of buf[at:] at at, moving those
// bytes up: a length written in front of what it measures (an extent, a
// frame item's record) is known only once that is written.
func PrefixLength(buf []byte, at int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], uint64(len(buf)-at))
	buf = append(buf, tmp[:k]...)
	copy(buf[at+k:], buf[at:len(buf)-k])
	copy(buf[at:], tmp[:k])
	return buf
}

// DecodeDocument parses the binary format back into a document tree.
func DecodeDocument(name string, data []byte) (*xmltree.Document, error) {
	return DecodeProjected(name, data, nil)
}

// DecodeProjected parses the binary format into the part of the document
// keep selects (nil keeps everything). A projection never makes a record
// fail that the whole decode accepts, and never changes the tree it
// builds from one: it is the projection of the whole tree. It may accept a
// record whose corruption lies wholly inside a subtree it skips; a
// checksum mismatch fails under every projection.
func DecodeProjected(name string, data []byte, keep *xmltree.Projection) (*xmltree.Document, error) {
	var root [1]*xmltree.Node
	if _, _, err := DecodeRecords([][]byte{data}, keep, root[:]); err != nil {
		return nil, fmt.Errorf("storage: decode %q: %w", name, err)
	}
	return &xmltree.Document{Name: name, Root: root[0]}, nil
}

// DecodeBatch parses many records at once into whole trees that share one
// node slab, one child-pointer slab and one text string: the same walk as
// DecodeDocument, run over every record in each pass. A corrupt record
// fails the batch with the error DecodeDocument reports for it under the
// name "record i", i its position in recs. It is CheckBatch and the
// build its Batch runs on first use, done at once.
//
// borrow, when non-nil, lets a record borrow another's name table: with
// borrow[i] = j ≥ 0, recs[i] is not a record but the bytes of one node of
// a record whose version byte and name table are recs[j]'s (a frame item
// shipped as its record's byte range); j must be below i and recs[j] a
// record of its own (borrow[j] < 0). A borrowed table is decoded once,
// however many nodes borrow it.
func DecodeBatch(recs [][]byte, borrow []int) ([]*xmltree.Node, error) {
	var d decoder
	if _, i, err := d.check(recs, borrow, nil); err != nil {
		return nil, batchError(i, err)
	}
	return d.build(recs, nil), nil
}

// batchError names the corrupt record of a batch.
func batchError(i int, err error) error {
	return fmt.Errorf("storage: decode \"record %d\": %w", i, err)
}

// RecordHead returns what a frame item copied out of rec begins with: its
// version byte as an unsealed record carries it, and its name table (the
// count included), which aliases rec. The node bytes of rec start right
// after the table.
func RecordHead(rec []byte) (version byte, table []byte, err error) {
	var d decoder
	if err := d.open(rec, false); err != nil {
		return 0, nil, err
	}
	table, _, err = d.scanTable()
	return rec[0] &^ sealedFlag, table, err
}

// DecodeRecords parses many records at once, each into the part keep
// selects (nil keeps everything), storing record i's root into roots[i]
// (len(roots) must be at least len(recs)). The trees share one node slab,
// one child-pointer slab and one text string. It returns the record bytes
// it walked: all of them but those of the subtrees it skipped, whose
// headers count as skipped too — their cost does not grow with them. On
// failure it returns the position of the first corrupt record and that
// record's error, unwrapped: the caller names the record. DecodeProjected
// and DecodeBatch are its one-record and whole-tree cases.
//
// Pass 2 records, on every node it builds whole (every node of a whole
// decode; under a projection, the subtrees it keeps without cutting into
// them) and on every shell, the node's byte range in its record
// (xmltree.Node's SetRecordRange): such a node can be shipped by copying
// those bytes, and a shell can be shipped only so.
func DecodeRecords(recs [][]byte, keep *xmltree.Projection, roots []*xmltree.Node) (walked int64, bad int, err error) {
	var d decoder
	if walked, bad, err = d.check(recs, nil, keep); err != nil {
		return 0, bad, err
	}
	d.build(recs, roots)
	return walked, 0, nil
}

// check is pass 1 over recs: checksums, structure, borrowed tables, and
// the totals the build allocates by (nodes, text bytes, names). It
// returns what DecodeRecords does.
func (d *decoder) check(recs [][]byte, borrow []int, keep *xmltree.Projection) (walked int64, bad int, err error) {
	if keep.Whole() && !(keep.Shells() && keep.Shipped()) {
		keep = nil
	}
	d.keep, d.shells, d.borrow = keep, keep.Shells(), borrow
	if borrow != nil {
		if len(borrow) != len(recs) {
			return 0, 0, fmt.Errorf("%d borrowed tables for %d records", len(borrow), len(recs))
		}
		d.lent = make([]lentTable, len(recs))
	}
	d.sizeTables(recs)
	if keep != nil {
		d.growNames() // a projection resolves names in pass 1
	}
	for i, rec := range recs {
		if err := d.start(recs, i, true); err != nil {
			return 0, i, err
		}
		if _, err := d.walk(nil, true, 0); err != nil {
			return 0, i, err
		}
		if d.pos != len(d.buf) {
			return 0, i, fmt.Errorf("%d trailing bytes", len(d.buf)-d.pos)
		}
		walked += int64(len(rec))
	}
	return walked - d.skipped, 0, nil
}

// build is pass 2 over the records check accepted: it stores record i's
// root into roots[i] and returns roots. A nil roots is allocated as the
// top of the child-pointer slab, which no child window reaches.
func (d *decoder) build(recs [][]byte, roots []*xmltree.Node) []*xmltree.Node {
	d.building, d.ships = true, 0
	d.slab = make([]xmltree.Node, d.nodes)
	kids := d.nodes - len(recs) // every kept node but the roots is a child
	if roots == nil {
		d.kids = make([]*xmltree.Node, d.nodes)
		roots = d.kids[kids:d.nodes:d.nodes]
	} else {
		d.kids = make([]*xmltree.Node, kids)
	}
	d.wp = kids
	d.text.Grow(d.textBytes)
	if d.all == nil {
		d.growNames() // a whole decode's pass 1 left the names to pass 2
	}
	d.arena, d.tableRaw = d.all, nil // replay pass 1's tables
	for i := range recs {
		_ = d.start(recs, i, false)        // pass 1 validated these bytes
		roots[i], _ = d.walk(nil, true, 0) // and these
	}
	return roots
}

// start opens record i at its root node, under its own name table or the
// one it borrows. A checksum is verified (verify) on a record's own bytes
// only: a lender is verified as the record it is.
func (d *decoder) start(recs [][]byte, i int, verify bool) error {
	j := -1
	if d.borrow != nil {
		j = d.borrow[i]
	}
	if j < 0 {
		if err := d.open(recs[i], verify); err != nil {
			return err
		}
		if err := d.readTable(); err != nil {
			return err
		}
		if d.lent != nil {
			d.lent[i] = lentTable{table: d.table, size: d.tableSize, v2: d.v2, ok: true}
		}
		return nil
	}
	if j >= i || !d.lent[j].ok {
		return fmt.Errorf("storage: borrows the table of record %d, which is not an earlier record of its own", j)
	}
	d.buf, d.pos = recs[i], 0
	d.table, d.tableSize, d.v2 = d.lent[j].table, d.lent[j].size, d.lent[j].v2
	return nil
}

const maxDecodeDepth = 10000

type decoder struct {
	buf []byte // the record being read, or the extent being walked; never the trailer
	pos int
	v2  bool // the record is version 2: elements may carry extents
	// table is the current name table, and tableSize its entry count: a
	// whole decode's pass 1 checks name refs against tableSize alone and
	// leaves table nil.
	table     []string
	tableSize int
	// tableRaw is the current table's bytes, count included: a record
	// whose table bytes equal them reuses table.
	tableRaw []byte
	keep     *xmltree.Projection // the root element's projection; nil keeps everything
	shells   bool                // keep is read WithShells
	// ownTable is the table tableRaw holds the bytes of: the last one a
	// record read as its own.
	ownTable []string

	// borrow is DecodeBatch's borrowed tables (nil: none); lent holds,
	// per record of its own, the table it lends.
	borrow []int
	lent   []lentTable

	// The names arena: every distinct table's bytes, copied once, and
	// the strings sliced from them (growNames allocates both, all the
	// strings; arena is what is left of them). The pass that fills it is
	// pass 1 under a projection, which resolves names, and pass 2 of a
	// whole decode, whose pass 1 only counts them.
	names strings.Builder
	all   []string
	arena []string

	counts
	// skipped is the bytes of the subtrees pass 1 skipped.
	skipped int64

	// ships counts the shipped elements met in the current pass;
	// shellBits, then moreBits, hold pass 1's decision for each, whether
	// it is built as a shell (walk): a decode of up to 8,192 of them
	// allocates nothing for it.
	ships     int
	shellBits [128]uint64
	moreBits  []uint64

	// Pass 2 state. kids is used from both ends: completed children wait
	// on a stack growing up from kids[0] (sp) until their parent
	// completes, then move into the parent's window, allocated downward
	// from the top (wp). Every built node but the root is in exactly one
	// of the two regions, so they never collide.
	building bool
	slab     []xmltree.Node
	next     int // next free slab slot
	kids     []*xmltree.Node
	sp, wp   int
	text     strings.Builder // kept text values, grown once to their total: never reallocated
}

// counts are pass 1's totals: what pass 2 allocates.
type counts struct {
	nodes, textBytes int
	// tableBytes and tableEntries size the names arena.
	tableBytes, tableEntries int
}

// lentTable is the name table (nil in a whole decode's pass 1), its entry
// count and the format version a record lends.
type lentTable struct {
	table  []string
	size   int
	v2, ok bool
}

// sizeTables sizes the names arena to hold every distinct name table of
// recs — distinct meaning its bytes differ from the previous record's —
// so readTable fills it without reallocating: a batch's tables cost two
// allocations, whatever the number of records. It stops at the first table
// that does not validate; pass 1 fails there and fills no later table.
func (d *decoder) sizeTables(recs [][]byte) {
	var prev []byte
	size, entries := 0, 0
	for i, rec := range recs {
		if d.borrow != nil && d.borrow[i] >= 0 {
			continue // reads no table of its own
		}
		if d.open(rec, false) != nil {
			break
		}
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
	d.tableBytes, d.tableEntries = size, entries
}

// growNames allocates the names arena sizeTables sized.
func (d *decoder) growNames() {
	d.names.Grow(d.tableBytes)
	d.all = make([]string, d.tableEntries)
	d.arena = d.all
}

// open starts reading rec at its name table. It checks the version byte
// and sets a sealed record's trailer aside, checking the checksum first
// when verify is set: before any other byte is trusted.
func (d *decoder) open(rec []byte, verify bool) error {
	d.buf, d.pos = rec, 0
	v, err := d.byte()
	if err != nil {
		return err
	}
	switch v {
	case 1: // no extents, no trailer
		d.v2 = false
	case encVersion:
		d.v2 = true
	case encVersion | sealedFlag:
		body := len(rec) - trailerSize
		if body < 1 {
			return fmt.Errorf("storage: truncated record")
		}
		if verify {
			stored, sum := binary.LittleEndian.Uint32(rec[body:]), crc32.Checksum(rec[:body], castagnoli)
			if stored != sum {
				return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, stored, sum)
			}
		}
		d.buf, d.v2 = rec[:body], true
	default:
		return fmt.Errorf("unsupported version %d", v)
	}
	return nil
}

// scanTable validates the name table, leaving pos at the root node, and
// returns the table's bytes (its count included) and its entry count.
func (d *decoder) scanTable() ([]byte, uint64, error) {
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
// other takes the next entries of the names arena — the pass that fills
// the arena copies the table's bytes into it and slices them there, so
// names never alias (and so never pin) the record itself; pass 2 of a
// projected decode, replaying the same records, finds them filled. A
// whole decode's pass 1 takes no entries: it has no arena yet.
func (d *decoder) readTable() error {
	raw, count, err := d.scanTable()
	if err != nil {
		return err
	}
	d.tableSize = int(count)
	if bytes.Equal(raw, d.tableRaw) {
		d.table = d.ownTable
		return nil
	}
	d.tableRaw = raw
	if d.all == nil {
		return nil
	}
	d.table, d.arena = d.arena[:count:count], d.arena[count:]
	d.ownTable = d.table
	if d.building && d.keep != nil {
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
// projection drops it. Both passes skip a dropped element's extent and
// walk a descended one's within it; pass 2 skips any other element it
// drops, which pass 1 validated.
func (d *decoder) walk(parent *xmltree.Projection, parentKept bool, depth int) (*xmltree.Node, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("storage: tree deeper than %d", maxDecodeDepth)
	}
	start := d.pos
	b, err := d.byte()
	if err != nil {
		return nil, err
	}
	kind, hasExtent := xmltree.Kind(b), false
	if d.v2 && b&extentFlag != 0 {
		if kind = xmltree.Kind(b &^ extentFlag); kind != xmltree.ElementNode {
			return nil, fmt.Errorf("storage: extent flag on node kind %d", kind)
		}
		hasExtent = true
	}
	id, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	switch kind {
	case xmltree.TextNode:
		raw, err := d.bytes()
		if err != nil || !parentKept || d.shell(parent) {
			return nil, err
		}
		if !d.building {
			d.nodes++
			d.textBytes += len(raw)
			return nil, nil
		}
		n := d.alloc(kind, id)
		d.text.Write(raw)
		s := d.text.String()
		n.Value = s[len(s)-len(raw):]
		n.SetRecordRange(start, d.pos, false)
		return n, nil
	case xmltree.ElementNode, xmltree.AttributeNode:
		ref, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ref >= uint64(d.tableSize) {
			return nil, fmt.Errorf("storage: name ref %d outside table of %d", ref, d.tableSize)
		}
		var name string // resolved only where names are filled
		if d.table != nil {
			name = d.table[ref]
		}
		count, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if count > uint64(len(d.buf)-d.pos) {
			return nil, fmt.Errorf("storage: child count %d overruns record", count)
		}
		var extent uint64
		if hasExtent {
			if extent, err = d.uvarint(); err != nil {
				return nil, err
			}
			if extent > uint64(len(d.buf)-d.pos) {
				return nil, fmt.Errorf("storage: extent of %d bytes at offset %d overruns its parent", extent, d.pos)
			}
			if count > extent {
				return nil, fmt.Errorf("storage: child count %d overruns its %d-byte extent", count, extent)
			}
		}
		var keep *xmltree.Projection // attributes are kept whole, but never by a shell
		kept := parentKept
		switch {
		case depth == 0:
			keep = d.keep
		case !kept:
		case kind != xmltree.ElementNode:
			kept = !d.shell(parent)
		case d.shells:
			keep, kept = parent.ShellChild(name)
		default:
			keep, kept = parent.Child(name)
		}
		// A shipped element is built as a shell unless it is smaller
		// than its record's name table: then it is built whole, as a
		// consumer encodes such a node from its tree rather than copy
		// the table. Pass 1 walks it as a shell and measures it after
		// (tentative), recording the outcome for pass 2.
		shell, tentative, ship := false, false, d.ships
		if kept && d.shell(keep) {
			d.ships++
			if d.building {
				shell = *d.shellWord(ship)&(1<<(ship%64)) != 0
			} else {
				shell, tentative = true, true
			}
			if !shell {
				keep = nil
			}
		}
		if !kept && d.building && !hasExtent {
			d.pos = d.skip(start)
			return nil, nil
		}
		outer := len(d.buf) // restored by reslicing: the extent keeps the capacity
		if hasExtent {
			if !kept {
				d.pos += int(extent)
				if !d.building {
					d.skipped += int64(d.pos - start)
				}
				return nil, nil
			}
			d.buf = d.buf[:d.pos+int(extent)] // the children may not read past it
		}
		var n *xmltree.Node
		if kept {
			if d.building {
				n = d.alloc(kind, id)
				n.Name = name
			} else {
				d.nodes++
			}
		}
		top, kidsAt := d.sp, d.pos
		nodes, textBytes, skipped := d.nodes, d.textBytes, d.skipped
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
		if tentative {
			if d.pos-start >= len(d.tableRaw) {
				*d.shellWord(ship) |= 1 << (ship % 64)
			} else {
				// Too small for a shell: count it whole instead.
				d.pos, d.nodes, d.textBytes, d.skipped = kidsAt, nodes, textBytes, skipped
				shell, keep = false, nil
				for i := uint64(0); i < count; i++ {
					if _, err := d.walk(nil, true, depth+1); err != nil {
						return nil, err
					}
				}
			}
		}
		if hasExtent {
			if d.pos != len(d.buf) {
				return nil, fmt.Errorf("storage: children end %d bytes before their extent", len(d.buf)-d.pos)
			}
			d.buf = d.buf[:outer]
		}
		if m := d.sp - top; m > 0 {
			lo := d.wp - m
			copy(d.kids[lo:d.wp], d.kids[top:d.sp])
			n.Children = d.kids[lo:d.wp:d.wp]
			d.wp, d.sp = lo, top
		}
		if n != nil && (keep == nil || shell) {
			n.SetRecordRange(start, d.pos, shell)
		}
		return n, nil
	default:
		return nil, fmt.Errorf("storage: unknown node kind %d", b)
	}
}

// shell reports whether an element projected by p is built as a shell,
// unless it is too small (walk).
func (d *decoder) shell(p *xmltree.Projection) bool {
	return d.shells && p.Shipped()
}

// shellWord returns the word holding the decision bit of shipped element
// i, growing moreBits past shellBits.
func (d *decoder) shellWord(i int) *uint64 {
	w := i / 64
	if w < len(d.shellBits) {
		return &d.shellBits[w]
	}
	w -= len(d.shellBits)
	for len(d.moreBits) <= w {
		d.moreBits = append(d.moreBits, 0)
	}
	return &d.moreBits[w]
}

// skip returns the offset at which the node at pos ends, reading only
// what it must to find it: pass 2 passes so over a subtree it drops,
// which pass 1 validated.
func (d *decoder) skip(pos int) int {
	b := d.buf[pos]
	pos = skipUvarint(d.buf, pos+1) // the id
	if xmltree.Kind(b) == xmltree.TextNode {
		l, k := binary.Uvarint(d.buf[pos:])
		return pos + k + int(l)
	}
	pos = skipUvarint(d.buf, pos) // the name ref
	count, k := binary.Uvarint(d.buf[pos:])
	pos += k
	if d.v2 && b&extentFlag != 0 {
		extent, k := binary.Uvarint(d.buf[pos:])
		return pos + k + int(extent)
	}
	for ; count > 0; count-- {
		pos = d.skip(pos)
	}
	return pos
}

// skipUvarint returns the offset after the uvarint at pos.
func skipUvarint(buf []byte, pos int) int {
	for buf[pos] >= 0x80 {
		pos++
	}
	return pos + 1
}

// alloc hands out the next slab node (pass 2, document order).
func (d *decoder) alloc(kind xmltree.Kind, id uint64) *xmltree.Node {
	n := &d.slab[d.next]
	d.next++
	n.Kind = kind
	n.ID = xmltree.NodeID(id)
	return n
}
