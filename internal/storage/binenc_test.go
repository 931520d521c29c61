package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"partix/internal/toxgene"
	"partix/internal/xmltree"
)

// hostileRecord builds an invalid record of depth nested elements, each
// declaring every byte after its own header as its child count. The
// innermost element is empty, so its parent then runs off the end. Its
// checksum is valid, so only the walk can reject it.
func hostileRecord(depth int) []byte {
	headers := make([][]byte, depth)
	remaining := 0
	for i := depth - 1; i >= 0; i-- {
		h := []byte{byte(xmltree.ElementNode)}
		h = binary.AppendUvarint(h, uint64(i+1)) // id
		h = binary.AppendUvarint(h, 0)           // name ref
		h = binary.AppendUvarint(h, uint64(remaining))
		headers[i] = h
		remaining += len(h)
	}
	rec := []byte{encVersion | sealedFlag, 1}
	rec = appendString(rec, "a")
	for _, h := range headers {
		rec = append(rec, h...)
	}
	return sealed(rec)
}

// sealed appends rec's checksum trailer.
func sealed(rec []byte) []byte {
	return binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, castagnoli))
}

// TestDecodeHostileChildCounts: a child count is checked only against the
// bytes that remain, so every level of a deep record may claim nearly all
// of them. Decoding must reject the record without allocating in
// proportion to those claims.
func TestDecodeHostileChildCounts(t *testing.T) {
	rec := hostileRecord(1500)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeDocument("hostile", rec)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile record decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(rec)) {
		t.Fatalf("rejecting a %d-byte record allocated %d bytes", len(rec), alloc)
	}
}

// largeItem and smallItem are one ItemsLHor and one ItemsSHor document.
func largeItem() *xmltree.Document {
	return toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 1, Seed: 1, Large: true}).Docs[0]
}

func smallItem() *xmltree.Document {
	return toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 1, Seed: 1}).Docs[0]
}

// TestDecodeAllocs pins decoding at a constant number of allocations,
// whatever the node count: the slabs, not the nodes, are allocated.
func TestDecodeAllocs(t *testing.T) {
	for _, d := range []*xmltree.Document{smallItem(), largeItem()} {
		data, err := EncodeDocument(d)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeDocument(d.Name, data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("decoding a %d-node, %d-byte document takes %.0f allocations, want at most 8",
				d.CountNodes(), len(data), allocs)
		}
	}
}

// TestDecodedAppendKeepsSiblings: children live in windows of one shared
// slab, so appending to any decoded node must reallocate rather than
// overwrite the window next to it.
func TestDecodedAppendKeepsSiblings(t *testing.T) {
	data, err := EncodeDocument(doc("x", `<a><b><x>1</x></b><c><y>2</y><z>3</z></c><d><w>4</w></d></a>`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDocument("x", data)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := DecodeDocument("x", data)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, refs []*xmltree.Node
	got.Root.Walk(func(n *xmltree.Node) bool { nodes = append(nodes, n); return true })
	ref.Root.Walk(func(n *xmltree.Node) bool { refs = append(refs, n); return true })
	for _, n := range nodes {
		if n.Kind == xmltree.ElementNode {
			n.Append(xmltree.NewElement("new"))
		}
	}
	for i, n := range nodes {
		want := len(refs[i].Children)
		if n.Kind == xmltree.ElementNode {
			want++
		}
		if len(n.Children) != want {
			t.Fatalf("node %q: %d children after append, want %d", n.Name, len(n.Children), want)
		}
		for j, c := range refs[i].Children {
			if n.Children[j].ID != c.ID {
				t.Fatalf("node %q child %d: ID %d, want %d: an append overwrote a sibling's window",
					n.Name, j, n.Children[j].ID, c.ID)
			}
		}
	}
}

// TestDecodeProjected checks the projection rules on a hand-built record:
// kept elements keep their attributes and text, named element children
// and whole subtrees; the root is kept even when unnamed.
func TestDecodeProjected(t *testing.T) {
	data, err := EncodeDocument(doc("x",
		`<Item id="7"><Code>I7</Code><Name>n</Name><PictureList><Picture><Name>p</Name><Path>/a</Path></Picture></PictureList></Item>`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		keep *xmltree.Projection
		want string
	}{
		{nil, `<Item id="7"><Code>I7</Code><Name>n</Name><PictureList><Picture><Name>p</Name><Path>/a</Path></Picture></PictureList></Item>`},
		{projection(), `<Item id="7"/>`},
		{projection("Code*"), `<Item id="7"><Code>I7</Code></Item>`},
		{projection("PictureList/Picture/Name*"), `<Item id="7"><PictureList><Picture><Name>p</Name></Picture></PictureList></Item>`},
		{projection("Code", "PictureList*"), `<Item id="7"><Code>I7</Code><PictureList><Picture><Name>p</Name><Path>/a</Path></Picture></PictureList></Item>`},
		{projection("Missing*"), `<Item id="7"/>`},
	}
	for _, c := range cases {
		got, err := DecodeProjected("x", data, c.keep)
		if err != nil {
			t.Fatal(err)
		}
		if s := xmltree.SerializeString(got); s != c.want {
			t.Errorf("projection %s:\n got %s\nwant %s", c.keep, s, c.want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("projection %s: %v", c.keep, err)
		}
	}
}

// projection builds a trie from slash-separated element paths; a trailing
// "*" marks the path's target whole.
func projection(paths ...string) *xmltree.Projection {
	p := &xmltree.Projection{}
	for _, path := range paths {
		t := p
		for _, name := range strings.Split(strings.TrimSuffix(path, "*"), "/") {
			t = t.Add(name)
		}
		if strings.HasSuffix(path, "*") {
			t.KeepWhole()
		}
	}
	return p
}

// project is the tree-level reference for DecodeProjected: a copy of n
// keeping what keep selects (nil: everything).
func project(n *xmltree.Node, keep *xmltree.Projection) *xmltree.Node {
	cp := &xmltree.Node{Kind: n.Kind, Name: n.Name, Value: n.Value, ID: n.ID}
	for _, c := range n.Children {
		var sub *xmltree.Projection // attributes and text are kept whole
		if c.Kind == xmltree.ElementNode {
			var ok bool
			if sub, ok = keep.Child(c.Name); !ok {
				continue
			}
		}
		cc := project(c, sub)
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// shellProjection is projection(paths...) with the node at path ship
// ("" for the root) shipped, read WithShells.
func shellProjection(ship string, paths ...string) *xmltree.Projection {
	p := projection(paths...)
	t := p
	if ship != "" {
		for _, name := range strings.Split(ship, "/") {
			t = t.Add(name)
		}
	}
	t.Ship()
	return p.WithShells()
}

// shellDiff compares got, decoded from rec under a projection read
// WithShells (keep projects got), with whole, the same node decoded
// whole: a shell must hold exactly the element children its trie names,
// carry a record range at least as long as rec's name table, and that
// range must decode to whole; a shipped node built whole must equal it;
// any other node must hold its attributes and text and the element
// children its trie names. It describes the first difference, or returns
// "".
func shellDiff(rec []byte, got, whole *xmltree.Node, keep *xmltree.Projection) string {
	if got.Kind != whole.Kind || got.Name != whole.Name || got.Value != whole.Value || got.ID != whole.ID {
		return fmt.Sprintf("node %s %q #%d vs %s %q #%d", got.Kind, got.Name, got.ID, whole.Kind, whole.Name, whole.ID)
	}
	if got.Partial() {
		version, table, err := RecordHead(rec)
		start, end, ok := got.RecordRange()
		if err != nil || !ok || end-start < len(table) {
			return fmt.Sprintf("shell %q #%d: range [%d,%d) of a record whose table is %d bytes (%v)", got.Name, got.ID, start, end, len(table), err)
		}
		alone, err := DecodeDocument("shell", append(append([]byte{version}, table...), rec[start:end]...))
		if err != nil {
			return fmt.Sprintf("shell %q #%d: its range: %v", got.Name, got.ID, err)
		}
		if d := treeDiff(alone.Root, whole); d != "" {
			return fmt.Sprintf("shell %q #%d: its range decodes to another tree: %s", got.Name, got.ID, d)
		}
	} else if keep.Shipped() || keep == nil {
		return treeDiff(got, whole)
	}
	i := 0
	for _, c := range whole.Children {
		sub := (*xmltree.Projection)(nil)
		if c.Kind == xmltree.ElementNode {
			var ok bool
			if sub, ok = keep.ShellChild(c.Name); !ok {
				continue
			}
		} else if got.Partial() {
			continue
		}
		if i == len(got.Children) {
			return fmt.Sprintf("node %q #%d: lacks child %q #%d", got.Name, got.ID, c.Name, c.ID)
		}
		if got.Children[i].Parent != got {
			return fmt.Sprintf("node %q #%d: child %d has a wrong parent", got.Name, got.ID, i)
		}
		if d := shellDiff(rec, got.Children[i], c, sub); d != "" {
			return d
		}
		i++
	}
	if i != len(got.Children) {
		return fmt.Sprintf("node %q #%d: %d children, want %d", got.Name, got.ID, len(got.Children), i)
	}
	return ""
}

// treeDiff describes the first difference between two trees in kind,
// name, value, ID, children or parent pointers, or returns "".
func treeDiff(a, b *xmltree.Node) string {
	if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value || a.ID != b.ID {
		return fmt.Sprintf("node %s %q=%q #%d vs %s %q=%q #%d", a.Kind, a.Name, a.Value, a.ID, b.Kind, b.Name, b.Value, b.ID)
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Sprintf("node %q #%d: %d children vs %d", a.Name, a.ID, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b {
			return fmt.Sprintf("node %q #%d: child %d has a wrong parent", a.Name, a.ID, i)
		}
		if d := treeDiff(a.Children[i], b.Children[i]); d != "" {
			return d
		}
	}
	return ""
}

// FuzzDecodeDocument feeds arbitrary bytes to the record decoder. It must
// never panic, and under each of a few fixed projections:
//   - a checksum mismatch fails the projected decode with the whole
//     decode's error;
//   - a whole decode that succeeds implies a projected decode that succeeds
//     and builds exactly the tree-level projection of the whole tree;
//   - a projected decode that fails implies a whole decode that fails (a
//     projected decode may accept corruption inside a subtree it skips);
//   - a batch holding the record twice decodes like the record alone,
//     whole (DecodeBatch) and under the projection (DecodeRecords), and
//     walks no more than its bytes, all of them when whole;
//   - under a projection read WithShells, a whole decode that succeeds
//     implies a decode that succeeds and builds each shipped node as a
//     shell whose range decodes to the whole node, or whole when it is
//     smaller than the record's table (shellDiff);
//
// and a record that decodes must survive an encode/decode round trip
// unchanged. The seed corpus (testdata/fuzz/FuzzDecodeDocument) holds
// version 1 records — a small and a large Item, attributes, a truncation,
// an out-of-range name ref, a child-count overrun, a tree past the depth
// limit and trailing bytes — and sealed version 2 ones: a large Item,
// valid small extents, extents past the record's end, past their parent,
// ending inside a sibling, of zero bytes with children, the extent flag on
// a text and on an attribute node, checksum-valid garbage in a skipped
// subtree, and a checksum mismatch.
func FuzzDecodeDocument(f *testing.F) {
	keeps := []*xmltree.Projection{
		projection(),
		projection("Code*", "Description*"),
		projection("PictureList/Picture/Name*", "Section"),
		projection("a/b*", "c"),
	}
	shells := []*xmltree.Projection{
		shellProjection("", "Code*"),
		shellProjection("PictureList", "PictureList/Picture/Name*", "Section*"),
		shellProjection("PictureList/Picture"),
		shellProjection("a", "a/b*"),
	}
	same := func(a, b error) bool { return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error()) }
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, err := DecodeDocument("f", data)
		for _, keep := range shells {
			var root [1]*xmltree.Node
			_, _, serr := DecodeRecords([][]byte{data}, keep, root[:])
			switch {
			case err == nil && serr != nil:
				t.Fatalf("shells %s: whole decode succeeds, err=%v", keep, serr)
			case err == nil:
				if d := shellDiff(data, root[0], whole.Root, keep); d != "" {
					t.Fatalf("shells %s: %s", keep, d)
				}
			}
		}
		for _, keep := range keeps {
			got, perr := DecodeProjected("f", data, keep)
			switch {
			case errors.Is(err, ErrChecksum) && !same(err, perr):
				t.Fatalf("projection %s: whole decode err=%v, projected err=%v", keep, err, perr)
			case err == nil && perr != nil:
				t.Fatalf("projection %s: whole decode succeeds, projected err=%v", keep, perr)
			case err == nil:
				if d := treeDiff(got.Root, project(whole.Root, keep)); d != "" {
					t.Fatalf("projection %s: %s", keep, d)
				}
			}
			// The same record twice as a batch under the projection: the
			// batch walk fails where the single-record walk does, at the
			// first record, or builds the same tree twice.
			var proots [2]*xmltree.Node
			walked, i, berr := DecodeRecords([][]byte{data, data}, keep, proots[:])
			if (perr == nil) != (berr == nil) || perr != nil && (i != 0 || `storage: decode "f": `+berr.Error() != perr.Error()) {
				t.Fatalf("projection %s: batch err=%v at record %d, projected err=%v", keep, berr, i, perr)
			}
			if perr != nil {
				continue
			}
			if walked > int64(2*len(data)) {
				t.Fatalf("projection %s: walked %d bytes of %d", keep, walked, 2*len(data))
			}
			for _, r := range proots {
				if d := treeDiff(r, got.Root); d != "" {
					t.Fatalf("projected batch %s: %s", keep, d)
				}
			}
		}
		roots, berr := DecodeBatch([][]byte{data, data}, nil)
		if _, want := DecodeDocument("record 0", data); !same(want, berr) {
			t.Fatalf("batch err=%v, want %v", berr, want)
		}
		if err != nil {
			return
		}
		for _, r := range roots {
			if d := treeDiff(r, whole.Root); d != "" {
				t.Fatalf("batch: %s", d)
			}
		}
		if walked, _, _ := DecodeRecords([][]byte{data, data}, nil, roots); walked != int64(2*len(data)) {
			t.Fatalf("whole batch walked %d bytes of %d", walked, 2*len(data))
		}
		if whole.Root.Parent != nil {
			t.Fatal("decoded root has a parent")
		}
		enc, err := EncodeDocument(whole)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeDocument("f", enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded document: %v", err)
		}
		if d := treeDiff(whole.Root, back.Root); d != "" {
			t.Fatalf("round trip: %s", d)
		}
	})
}

// pictureItem builds an Item whose PictureList, its last child, holds n
// Pictures shaped like ItemsLHor's.
func pictureItem(n int) *xmltree.Document {
	var b strings.Builder
	b.WriteString(`<Item id="1"><Code>I000001</Code><Name>boxed set</Name>` +
		`<Description>a good boxed set of classic recordings</Description><Section>CD</Section><PictureList>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<Picture><Name>front cover</Name><Description>the front of the box in colour</Description>`+
			`<ModificationDate>2004-05-%02d</ModificationDate><OriginalPath>/img/orig/%d.png</OriginalPath>`+
			`<ThumbPath>/img/thumb/%d.png</ThumbPath></Picture>`, 1+i%28, i, i)
	}
	b.WriteString(`</PictureList></Item>`)
	return doc("item", b.String())
}

// A shipped element is built as a shell holding only the element
// children its trie names, its range the whole element; one smaller than
// its record's name table is built whole; and the root can be a shell.
func TestShellsHoldOnlyNamedChildren(t *testing.T) {
	data, err := EncodeDocument(pictureItem(30))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := DecodeDocument("x", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		keep    *xmltree.Projection
		at      string // the shipped child of the root, "" for the root
		partial bool
		want    string // the decoded tree, when pinned
	}{
		{shellProjection("PictureList", "PictureList/Picture/Name*", "Section*"), "PictureList", true, ""},
		{shellProjection("", "Section*"), "", true, `<Item><Section>CD</Section></Item>`},
		{shellProjection("Code", "Section*"), "Code", false, `<Item id="1"><Code>I000001</Code><Section>CD</Section></Item>`},
	} {
		var root [1]*xmltree.Node
		if _, _, err := DecodeRecords([][]byte{data}, c.keep, root[:]); err != nil {
			t.Fatalf("%s: %v", c.keep, err)
		}
		if d := shellDiff(data, root[0], whole.Root, c.keep); d != "" {
			t.Fatalf("%s: %s", c.keep, d)
		}
		n := root[0]
		if c.at != "" {
			n = n.Child(c.at)
		}
		if n == nil || n.Partial() != c.partial {
			t.Fatalf("%s: the shipped node %v, want partial=%v", c.keep, n, c.partial)
		}
		if c.want != "" {
			if got := xmltree.NodeString(root[0]); got != c.want {
				t.Fatalf("%s: decoded %s, want %s", c.keep, got, c.want)
			}
		}
	}
}

// A decode records pass 1's shell decisions past the 8,192 its decoder
// holds inline: a record of 9,000 shipped Items, every other one too
// small for a shell, decodes each as pass 1 decided.
func TestShellDecisionsPastInlineBits(t *testing.T) {
	root := xmltree.NewElement("Items")
	for i := 0; i < 9000; i++ {
		item := xmltree.NewElement("Item", xmltree.NewElement("Section", xmltree.NewText("CD")))
		if i%2 == 0 {
			item.Append(xmltree.NewElement("Note", xmltree.NewText(strings.Repeat("n", 60))))
		}
		root.Append(item)
	}
	data, err := EncodeDocument(xmltree.NewDocument("items", root))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := DecodeDocument("items", data)
	if err != nil {
		t.Fatal(err)
	}
	keep := shellProjection("Item", "Item/Section*")
	var got [1]*xmltree.Node
	if _, _, err := DecodeRecords([][]byte{data}, keep, got[:]); err != nil {
		t.Fatal(err)
	}
	if d := shellDiff(data, got[0], whole.Root, keep); d != "" {
		t.Fatal(d)
	}
	for i, item := range got[0].Children {
		if item.Partial() != (i%2 == 0) {
			t.Fatalf("Item %d: partial=%v, want %v", i, item.Partial(), i%2 == 0)
		}
	}
}

// TestProjectedDecodeIndependentOfDroppedSubtrees is a cost-class gate: a
// projected decode that drops a subtree carrying an extent walks the same
// bytes and makes the same allocations whatever the subtree's size. Items
// with 10 and with 1,000 Pictures walk 200 bytes each under
// {Code*,Description*}, in 5 allocations. Format version 1 had no extents,
// and its decoder walked every byte of their records: 1,410 and 135,866.
func TestProjectedDecodeIndependentOfDroppedSubtrees(t *testing.T) {
	keep := projection("Code*", "Description*")
	const want = `<Item id="1"><Code>I000001</Code><Description>a good boxed set of classic recordings</Description></Item>`
	walked, allocs := map[int]int64{}, map[int]float64{}
	for _, n := range []int{10, 1000} {
		data, err := EncodeDocument(pictureItem(n))
		if err != nil {
			t.Fatal(err)
		}
		roots := make([]*xmltree.Node, 1)
		w, _, err := DecodeRecords([][]byte{data}, keep, roots)
		if err != nil {
			t.Fatal(err)
		}
		if s := xmltree.SerializeString(&xmltree.Document{Root: roots[0]}); s != want {
			t.Fatalf("%d pictures: got %s, want %s", n, s, want)
		}
		if whole, _, err := DecodeRecords([][]byte{data}, nil, roots); err != nil || whole != int64(len(data)) {
			t.Fatalf("%d pictures: a whole decode walked %d of %d bytes (%v)", n, whole, len(data), err)
		}
		walked[n] = w
		allocs[n] = testing.AllocsPerRun(20, func() {
			if _, _, err := DecodeRecords([][]byte{data}, keep, roots); err != nil {
				t.Fatal(err)
			}
		})
	}
	if walked[10] != walked[1000] || allocs[10] != allocs[1000] {
		t.Errorf("projected decode walks %d bytes in %.0f allocations at 10 pictures, %d in %.0f at 1000; want them equal",
			walked[10], allocs[10], walked[1000], allocs[1000])
	}
	t.Logf("walked %d bytes in %.0f allocations", walked[10], allocs[10])
}

// A sealed record whose PictureList holds garbage decodes under a
// projection that skips the PictureList, and fails a whole decode: the
// skipped bytes are never read.
func TestProjectedDecodeSkipsGarbageInDroppedSubtree(t *testing.T) {
	data, err := EncodeDocument(pictureItem(10))
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("/img/orig/5.png"))
	if at < 0 {
		t.Fatal("picture path not found in the record")
	}
	for i := at - 8; i < at+8; i++ {
		data[i] = 0xff
	}
	body := data[:len(data)-trailerSize]
	data = sealed(body)
	got, err := DecodeProjected("x", data, projection("Code*", "Description*"))
	if err != nil {
		t.Fatalf("projected decode: %v", err)
	}
	if s := xmltree.SerializeString(got); !strings.Contains(s, "<Code>I000001</Code>") {
		t.Fatalf("projected decode built %s", s)
	}
	if _, err := DecodeDocument("x", data); err == nil {
		t.Fatal("whole decode accepted garbage inside the PictureList")
	}
}

// A checksum mismatch fails every decode with ErrChecksum, under every
// projection, even when the corrupt byte is inside a text value.
func TestChecksumMismatchFailsEveryProjection(t *testing.T) {
	data, err := EncodeDocument(pictureItem(10))
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("boxed set"))
	data[at] = 'B'
	var first string
	for _, keep := range []*xmltree.Projection{nil, projection(), projection("Code*", "Description*")} {
		_, err := DecodeProjected("x", data, keep)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("projection %s: err = %v, want ErrChecksum", keep, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("projection %s: err = %v, want %s", keep, err, first)
		}
	}
}
