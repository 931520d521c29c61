package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"partix/internal/xmltree"
)

func tempStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func doc(name, xml string) *xmltree.Document {
	return xmltree.MustParseString(name, xml)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := tempStore(t)
	d := doc("i1", `<Item id="1"><Code>I1</Code><Section>CD</Section></Item>`)
	if err := s.PutDocument("items", d); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetDocument("items", "i1")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualDocuments(d, got) {
		t.Fatalf("round trip mismatch: %s", xmltree.Diff(d.Root, got.Root))
	}
}

func TestBinaryEncodingPreservesIDs(t *testing.T) {
	d := doc("x", `<a><b attr="v">text</b><c/></a>`)
	data, err := EncodeDocument(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDocument("x", data)
	if err != nil {
		t.Fatal(err)
	}
	var origIDs, backIDs []xmltree.NodeID
	d.Root.Walk(func(n *xmltree.Node) bool { origIDs = append(origIDs, n.ID); return true })
	back.Root.Walk(func(n *xmltree.Node) bool { backIDs = append(backIDs, n.ID); return true })
	if len(origIDs) != len(backIDs) {
		t.Fatalf("node counts differ: %d vs %d", len(origIDs), len(backIDs))
	}
	for i := range origIDs {
		if origIDs[i] != backIDs[i] {
			t.Fatalf("ID %d: %d vs %d", i, origIDs[i], backIDs[i])
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := EncodeDocument(&xmltree.Document{Name: "x"}); err == nil {
		t.Fatal("nil root encoded")
	}
}

func TestDecodeRejectsCorruptRecords(t *testing.T) {
	d := doc("x", `<a><b>text</b></a>`)
	data, _ := EncodeDocument(d)
	cases := map[string][]byte{
		"empty":        {},
		"bad version":  {99},
		"truncated":    data[:len(data)/2],
		"trailing":     append(append([]byte{}, data...), 0xFF),
		"huge table":   {1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"bad name ref": {1, 0, 0 /*kind=element*/, 1 /*id*/, 7 /*ref out of empty table*/, 0},
	}
	for name, in := range cases {
		if _, err := DecodeDocument("x", in); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d1 := doc("i1", `<Item><Code>I1</Code></Item>`)
	d2 := doc("i2", `<Item><Code>I2</Code></Item>`)
	if err := s.PutDocument("items", d1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDocument("items", d2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	names, err := s2.Documents("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "i1" || names[1] != "i2" {
		t.Fatalf("documents after reopen: %v", names)
	}
	got, err := s2.GetDocument("items", "i2")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualDocuments(d2, got) {
		t.Fatal("content lost across reopen")
	}
}

func TestReplaceDocumentReusesSpace(t *testing.T) {
	s, _ := tempStore(t)
	big := doc("d", "<a><b>"+strings.Repeat("x", 3*PageSize)+"</b></a>")
	if err := s.PutDocument("c", big); err != nil {
		t.Fatal(err)
	}
	// A replaced chain is recycled at the next checkpoint (deferred free),
	// so the file grows by one chain on the first replace and then reaches
	// a steady state: reach it, then assert replaces stop growing the file.
	if err := s.PutDocument("c", big); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	steady := s.pager.pageCount.Load()
	// This replace must fill the pages the checkpoint just drained.
	if err := s.PutDocument("c", big); err != nil {
		t.Fatal(err)
	}
	if got := s.pager.pageCount.Load(); got > steady+1 {
		t.Fatalf("pages grew from %d to %d on replace", steady, got)
	}
	got, err := s.GetDocument("c", "d")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualDocuments(big, got) {
		t.Fatal("replaced document corrupt")
	}
}

func TestDeleteDocument(t *testing.T) {
	s, _ := tempStore(t)
	if err := s.PutDocument("c", doc("d", "<a/>")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDocument("c", "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetDocument("c", "d"); err == nil {
		t.Fatal("deleted document still readable")
	}
	if err := s.DeleteDocument("c", "d"); err == nil {
		t.Fatal("double delete succeeded")
	}
	if err := s.DeleteDocument("nope", "d"); err == nil {
		t.Fatal("delete from missing collection succeeded")
	}
}

func TestCollectionsAndStats(t *testing.T) {
	s, _ := tempStore(t)
	s.CreateCollection("empty")
	if err := s.PutDocument("items", doc("i1", "<a><b>hello</b></a>")); err != nil {
		t.Fatal(err)
	}
	cols := s.Collections()
	if len(cols) != 2 || cols[0] != "empty" || cols[1] != "items" {
		t.Fatalf("collections = %v", cols)
	}
	if !s.HasCollection("items") || s.HasCollection("nope") {
		t.Fatal("HasCollection wrong")
	}
	st, err := s.CollectionStats("items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Documents != 1 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := s.CollectionStats("nope"); err == nil {
		t.Fatal("stats of missing collection succeeded")
	}
	if _, err := s.Documents("nope"); err == nil {
		t.Fatal("documents of missing collection succeeded")
	}
}

func TestDropCollection(t *testing.T) {
	s, _ := tempStore(t)
	if err := s.PutDocument("c", doc("d", "<a/>")); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCollection("c"); err != nil {
		t.Fatal(err)
	}
	if s.HasCollection("c") {
		t.Fatal("collection survived drop")
	}
	if err := s.DropCollection("c"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

func TestLoadAndReadCollection(t *testing.T) {
	s, _ := tempStore(t)
	c := xmltree.NewCollection("items",
		doc("i2", "<a><x>2</x></a>"),
		doc("i1", "<a><x>1</x></a>"),
	)
	if err := s.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadCollection("items")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCollections(c, got) {
		t.Fatal("collection round trip failed")
	}
	// ReadCollection returns documents sorted by name.
	if got.Docs[0].Name != "i1" {
		t.Fatalf("order: %s first", got.Docs[0].Name)
	}
}

func TestLargeDocumentSpansManyPages(t *testing.T) {
	s, _ := tempStore(t)
	var sb strings.Builder
	sb.WriteString("<Store><Items>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "<Item><Code>I%d</Code><Description>some text %d</Description></Item>", i, i)
	}
	sb.WriteString("</Items></Store>")
	d := doc("big", sb.String())
	if err := s.PutDocument("c", d); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetDocument("c", "big")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualDocuments(d, got) {
		t.Fatal("large document corrupt")
	}
	if got := s.pager.pageCount.Load(); got < 10 {
		t.Fatalf("expected many pages, got %d", got)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.db")
	if err := os.WriteFile(path, []byte(strings.Repeat("junk data!", 600)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("foreign file opened as store")
	}
}

func TestGetDocumentErrors(t *testing.T) {
	s, _ := tempStore(t)
	if _, err := s.GetDocument("nope", "d"); err == nil {
		t.Fatal("missing collection read")
	}
	s.CreateCollection("c")
	if _, err := s.GetDocument("c", "nope"); err == nil {
		t.Fatal("missing document read")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s, _ := tempStore(t)
	base := doc("seed", "<a><b>seed</b></a>")
	if err := s.PutDocument("c", base); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d := doc(fmt.Sprintf("w%d-%d", w, i), fmt.Sprintf("<a><b>%d</b></a>", i))
				if err := s.PutDocument("c", d); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := s.GetDocument("c", "seed"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	names, _ := s.Documents("c")
	if len(names) != 81 {
		t.Fatalf("documents = %d, want 81", len(names))
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := xmltree.NewDocument("q", randomTree(r, 4))
		data, err := EncodeDocument(d)
		if err != nil {
			return false
		}
		back, err := DecodeDocument("q", data)
		if err != nil {
			return false
		}
		return xmltree.EqualDocuments(d, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomTree mirrors the generator in xmltree's tests (kept local: test
// helpers are not exported across packages).
func randomTree(r *rand.Rand, depth int) *xmltree.Node {
	names := []string{"a", "b", "Item", "Section"}
	el := xmltree.NewElement(names[r.Intn(len(names))])
	if r.Intn(3) == 0 {
		el.Append(xmltree.NewAttr("id", fmt.Sprintf("v%d", r.Intn(100))))
	}
	if depth <= 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			el.Append(xmltree.NewText(fmt.Sprintf("text %d", r.Intn(1000))))
		}
		return el
	}
	for i := 0; i < r.Intn(4); i++ {
		el.Append(randomTree(r, depth-1))
	}
	return el
}

// TestSnapshotRefsSharedUntilMutation: snapshots of a collection share one
// sorted ref slice until the collection's next mutation; every mutation
// kind makes the next snapshot see the change while earlier snapshots keep
// exactly what they saw, and a write to one collection leaves another's
// slice shared.
func TestSnapshotRefsSharedUntilMutation(t *testing.T) {
	s, path := tempStore(t)
	put := func(st *Store, col, name, xml string) {
		t.Helper()
		if err := st.PutDocument(col, doc(name, xml)); err != nil {
			t.Fatal(err)
		}
	}
	type held struct {
		step string
		snap *CollectionSnapshot
		refs []DocRef // copy taken when the snapshot was
	}
	var snaps []held
	take := func(st *Store, col, step string) *CollectionSnapshot {
		t.Helper()
		snap, err := st.SnapshotCollection(col)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(snap.Close)
		snaps = append(snaps, held{step, snap, slices.Clone(snap.Refs)})
		return snap
	}
	check := func(step string, snap *CollectionSnapshot, want ...string) {
		t.Helper()
		var names []string
		for _, r := range snap.Refs {
			names = append(names, r.Name)
		}
		if !slices.Equal(names, want) {
			t.Fatalf("%s: snapshot holds %v, want %v", step, names, want)
		}
		for _, h := range snaps {
			if !slices.Equal(h.snap.Refs, h.refs) {
				t.Fatalf("%s: the snapshot taken at %q changed: %v, was %v", step, h.step, h.snap.Refs, h.refs)
			}
		}
	}
	shared := func(a, b *CollectionSnapshot) bool {
		return len(a.Refs) > 0 && len(a.Refs) == len(b.Refs) && &a.Refs[0] == &b.Refs[0]
	}

	put(s, "x", "d", "<a>d</a>")
	put(s, "x", "b", "<a>b</a>")
	put(s, "y", "k", "<a>k</a>")
	x0, x1 := take(s, "x", "initial"), take(s, "x", "initial")
	if !shared(x0, x1) {
		t.Fatal("two snapshots with no write between them do not share their refs")
	}
	y0 := take(s, "y", "initial")
	check("initial", x0, "b", "d")

	prev := x0
	for _, step := range []struct {
		name   string
		mutate func()
		want   []string
	}{
		{"put new", func() { put(s, "x", "c", "<a>c</a>") }, []string{"b", "c", "d"}},
		{"replace", func() { put(s, "x", "c", "<a>c, longer now</a>") }, []string{"b", "c", "d"}},
		{"delete", func() {
			if err := s.DeleteDocument("x", "b"); err != nil {
				t.Fatal(err)
			}
		}, []string{"c", "d"}},
		{"drop and re-create", func() {
			if err := s.DropCollection("x"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SnapshotCollection("x"); err == nil {
				t.Fatal("snapshot of a dropped collection")
			}
			if err := s.CreateCollection("x"); err != nil {
				t.Fatal(err)
			}
			put(s, "x", "z", "<a>z</a>")
		}, []string{"z"}},
	} {
		step.mutate()
		snap := take(s, "x", step.name)
		check(step.name, snap, step.want...)
		if shared(snap, prev) || slices.Equal(snap.Refs, prev.Refs) {
			t.Fatalf("%s: the new snapshot does not reflect the change", step.name)
		}
		if y := take(s, "y", step.name); !shared(y, y0) {
			t.Fatalf("%s: a write to x rebuilt y's refs", step.name)
		}
		prev = snap
	}

	// A crashed image replays the WAL at open: its snapshots reflect every
	// logged mutation, and those of the live store are untouched.
	put(s, "x", "w", "<a>w</a>")
	crash := filepath.Join(t.TempDir(), "crash.db")
	copyCrashImage(t, path, crash)
	s2, err := Open(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredMutations() == 0 {
		t.Fatal("expected WAL replay, got a clean open")
	}
	r0 := take(s2, "x", "replayed")
	check("replayed", r0, "w", "z")
	if r1 := take(s2, "x", "replayed"); !shared(r0, r1) {
		t.Fatal("snapshots of a replayed store do not share their refs")
	}
	put(s2, "x", "a", "<a>a</a>")
	check("put after replay", take(s2, "x", "put after replay"), "a", "w", "z")
}
