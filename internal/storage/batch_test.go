package storage

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"partix/internal/toxgene"
	"partix/internal/xmltree"
)

// itemTree builds a random element tree under root name: attributes,
// text that needs escaping, and nesting up to depth. Names come from a
// small alphabet, so two trees often share a name table and sometimes
// do not.
func itemTree(r *rand.Rand, name string, depth int) *xmltree.Node {
	names := []string{"Item", "Code", "Name", "Description", "p", "b"}
	texts := []string{"plain", "a < b && c > d", `"quoted" 'too'`, "ünïcödé ✓", "", "]]>"}
	n := xmltree.NewElement(name)
	if r.Intn(3) == 0 {
		n.Append(xmltree.NewAttr(fmt.Sprintf("a%d", r.Intn(3)), texts[r.Intn(len(texts))]))
	}
	for i, kids := 0, r.Intn(4); i < kids; i++ {
		if depth > 0 && r.Intn(3) > 0 {
			n.Append(itemTree(r, names[r.Intn(len(names))], depth-1))
		} else if s := texts[r.Intn(len(texts))]; s != "" {
			n.Append(xmltree.NewText(s))
		}
	}
	return n
}

// randomRecords encodes count random trees through one Encoder, the way
// a node encodes a frame's items, and checks each against EncodeDocument:
// the same record, but for the seal. About half the records are sealed.
func randomRecords(t *testing.T, r *rand.Rand, count int) [][]byte {
	t.Helper()
	var enc Encoder
	recs := make([][]byte, count)
	for i := range recs {
		root := itemTree(r, "Item", 1+r.Intn(6))
		if i > 0 && r.Intn(3) == 0 {
			root = itemTree(rand.New(rand.NewSource(int64(i))), "Item", 2) // repeat a shape: equal tables
		}
		d := &xmltree.Document{Name: "x", Root: root}
		d.AssignIDs()
		recs[i] = enc.Append(nil, root)
		want, err := EncodeDocument(d)
		if err != nil {
			t.Fatal(err)
		}
		if unsealed := want[:len(want)-trailerSize]; want[0] != encVersion|sealedFlag ||
			string(recs[i][1:]) != string(unsealed[1:]) || recs[i][0] != encVersion {
			t.Fatalf("record %d: Encoder.Append differs from EncodeDocument but for the seal", i)
		}
		if r.Intn(2) == 0 {
			recs[i] = want
		}
	}
	return recs
}

// Every root DecodeBatch builds is the tree DecodeDocument builds from the
// same record: same serialization, same IDs and parent pointers.
func TestDecodeBatchMatchesDecodeDocument(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		recs := randomRecords(t, r, 1+r.Intn(40))
		roots, err := DecodeBatch(recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(roots) != len(recs) {
			t.Fatalf("%d roots for %d records", len(roots), len(recs))
		}
		for i, rec := range recs {
			want, err := DecodeDocument("x", rec)
			if err != nil {
				t.Fatal(err)
			}
			if roots[i].Parent != nil {
				t.Fatalf("record %d: decoded root has a parent", i)
			}
			got := &xmltree.Document{Name: "x", Root: roots[i]}
			if g, w := xmltree.SerializeString(got), xmltree.SerializeString(want); g != w {
				t.Fatalf("record %d:\n got %s\nwant %s", i, g, w)
			}
			if d := treeDiff(roots[i], want.Root); d != "" {
				t.Fatalf("record %d: %s", i, d)
			}
		}
	}
	if roots, err := DecodeBatch(nil, nil); err != nil || len(roots) != 0 {
		t.Fatalf("empty batch: %v, %v", roots, err)
	}
}

// Every root DecodeRecords builds under a projection is the tree
// DecodeProjected builds from the same record under it: same
// serialization, same IDs and parent pointers. Each round's projection is
// grown from random element paths of its records' own trees, so it keeps
// something of most records and drops something of most, across equal
// and differing name tables and text that needs escaping.
func TestDecodeProjectedBatchMatchesDecodeProjected(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for round := 0; round < 100; round++ {
		recs := randomRecords(t, r, 1+r.Intn(40))
		keep := &xmltree.Projection{}
		for k := 1 + r.Intn(2); k > 0; k-- {
			d, err := DecodeDocument("x", recs[r.Intn(len(recs))])
			if err != nil {
				t.Fatal(err)
			}
			addRandomPaths(r, keep, d.Root)
		}
		if round%10 == 0 {
			keep = nil // the whole-tree case
		}
		roots := make([]*xmltree.Node, len(recs))
		if _, i, err := DecodeRecords(recs, keep, roots); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		for i, rec := range recs {
			want, err := DecodeProjected("x", rec, keep)
			if err != nil {
				t.Fatal(err)
			}
			got := &xmltree.Document{Name: "x", Root: roots[i]}
			if g, w := xmltree.SerializeString(got), xmltree.SerializeString(want); g != w {
				t.Fatalf("round %d, record %d, projection %s:\n got %s\nwant %s", round, i, keep, g, w)
			}
			if d := treeDiff(roots[i], want.Root); d != "" {
				t.Fatalf("round %d, record %d, projection %s: %s", round, i, keep, d)
			}
		}
	}
}

// addRandomPaths adds to p, for some of n's element children, the child's
// name, marking it whole or descending into its own children.
func addRandomPaths(r *rand.Rand, p *xmltree.Projection, n *xmltree.Node) {
	for _, c := range n.Children {
		if c.Kind != xmltree.ElementNode || r.Intn(3) == 0 {
			continue
		}
		sub := p.Add(c.Name)
		if r.Intn(3) == 0 {
			sub.KeepWhole()
		} else {
			addRandomPaths(r, sub, c)
		}
	}
}

// The first corrupt record fails the batch with the error DecodeDocument
// reports for it, whatever follows it.
func TestDecodeBatchReportsFirstCorruptRecord(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	corrupt := []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-1] },                                // truncated
		func(b []byte) []byte { return append(b, 0) },                                // trailing byte
		func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 9; return c }, // version
		func(b []byte) []byte { return hostileRecord(40) },                           // child-count overrun
	}
	for round := 0; round < 40; round++ {
		recs := randomRecords(t, r, 2+r.Intn(20))
		bad := r.Intn(len(recs))
		recs[bad] = corrupt[r.Intn(len(corrupt))](recs[bad])
		if later := bad + 1 + r.Intn(len(recs)); later < len(recs) {
			recs[later] = corrupt[r.Intn(len(corrupt))](recs[later])
		}
		_, err := DecodeBatch(recs, nil)
		_, want := DecodeDocument(fmt.Sprintf("record %d", bad), recs[bad])
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("round %d: batch error %v, want %v", round, err, want)
		}
	}
}

// Children of a batch live in windows of one shared slab across record
// boundaries: appending to any decoded node must leave every other node's
// children — in its own record and in every other — intact.
func TestDecodeBatchAppendKeepsOtherItems(t *testing.T) {
	recs := randomRecords(t, rand.New(rand.NewSource(3)), 30)
	got, err := DecodeBatch(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := DecodeBatch(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, refs []*xmltree.Node
	for i := range got {
		got[i].Walk(func(n *xmltree.Node) bool { nodes = append(nodes, n); return true })
		ref[i].Walk(func(n *xmltree.Node) bool { refs = append(refs, n); return true })
	}
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
			if n.Children[j].ID != c.ID || n.Children[j].Parent != n {
				t.Fatalf("node %q child %d: an append overwrote another window", n.Name, j)
			}
		}
	}
}

// TestDecodeBatchAllocs pins a batch decode at a constant number of
// allocations whatever its record count — including large Items, a third
// of which carry a name table that differs from the previous record's —
// both whole (DecodeBatch, a query frame) and projected into caller-owned
// roots (DecodeRecords, an engine scan's chunk). The collector is off
// while it counts: a cycle set off by the multi-MB slabs allocates objects
// of its own.
func TestDecodeBatchAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	keep := projection("Code*", "PictureList/Picture/Name*", "Section")
	whole, projected := map[int]float64{}, map[int]float64{}
	for _, n := range []int{10, 100} {
		col := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: n, Seed: 1, Large: true})
		recs := make([][]byte, n)
		for i, d := range col.Docs {
			var err error
			if recs[i], err = EncodeDocument(d); err != nil {
				t.Fatal(err)
			}
		}
		whole[n] = testing.AllocsPerRun(3, func() {
			if _, err := DecodeBatch(recs, nil); err != nil {
				t.Fatal(err)
			}
		})
		roots := make([]*xmltree.Node, n)
		projected[n] = testing.AllocsPerRun(3, func() {
			if _, _, err := DecodeRecords(recs, keep, roots); err != nil {
				t.Fatal(err)
			}
		})
	}
	for kind, allocs := range map[string]map[int]float64{"whole": whole, "projected": projected} {
		if allocs[100] != allocs[10] || allocs[10] > 8 {
			t.Errorf("%s: decoding 10 records takes %.0f allocations, 100 take %.0f; want the same, at most 8",
				kind, allocs[10], allocs[100])
		}
	}
}
