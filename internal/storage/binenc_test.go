package storage

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"partix/internal/toxgene"
	"partix/internal/xmltree"
)

// hostileRecord builds an invalid record of depth nested elements, each
// declaring every byte after its own header as its child count. The
// innermost element is empty, so its parent then runs off the end.
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
	rec := []byte{encVersion, 1}
	rec = appendString(rec, "a")
	for _, h := range headers {
		rec = append(rec, h...)
	}
	return rec
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
// never panic; a record that decodes must survive an encode/decode round
// trip unchanged; and under each of a few fixed projections the decoder
// must fail on exactly the inputs the whole decode fails on, with the same
// error, and otherwise build exactly the tree-level projection of the
// whole decode; so must a batch holding the record twice, whole and under
// each projection. The seed corpus (testdata/fuzz/FuzzDecodeDocument) holds a
// small and a large Item, attributes, a truncation, an out-of-range name
// ref, a child-count overrun, a tree past the depth limit and trailing
// bytes.
func FuzzDecodeDocument(f *testing.F) {
	keeps := []*xmltree.Projection{
		projection(),
		projection("Code*", "Description*"),
		projection("PictureList/Picture/Name*", "Section"),
		projection("a/b*", "c"),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, err := DecodeDocument("f", data)
		for _, keep := range keeps {
			got, perr := DecodeProjected("f", data, keep)
			if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
				t.Fatalf("projection %s: whole decode err=%v, projected err=%v", keep, err, perr)
			}
			if err == nil {
				if d := treeDiff(got.Root, project(whole.Root, keep)); d != "" {
					t.Fatalf("projection %s: %s", keep, d)
				}
			}
		}
		// The same record twice as a batch, whole and under each projection:
		// the batch walk fails where the single-record walk does, at the
		// first record, or builds the same tree twice.
		roots, berr := DecodeBatch([][]byte{data, data})
		if _, want := DecodeDocument("record 0", data); (want == nil) != (berr == nil) || want != nil && want.Error() != berr.Error() {
			t.Fatalf("batch err=%v, want %v", berr, want)
		}
		for _, keep := range keeps {
			var proots [2]*xmltree.Node
			i, perr := DecodeRecords([][]byte{data, data}, keep, proots[:])
			if (err == nil) != (perr == nil) || err != nil && (i != 0 || `storage: decode "f": `+perr.Error() != err.Error()) {
				t.Fatalf("projection %s: batch err=%v at record %d, whole decode err=%v", keep, perr, i, err)
			}
			if err != nil {
				continue
			}
			for _, r := range proots {
				if d := treeDiff(r, project(whole.Root, keep)); d != "" {
					t.Fatalf("projected batch %s: %s", keep, d)
				}
			}
		}
		if err != nil {
			return
		}
		for _, r := range roots {
			if d := treeDiff(r, whole.Root); d != "" {
				t.Fatalf("batch: %s", d)
			}
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
