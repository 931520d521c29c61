package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"partix/internal/toxgene"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func TestValueIndexRangePruning(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	db.ResetStats()
	// Item ids are 1..4; only i1 satisfies @id < 2. The token index cannot
	// serve an inequality — pruning to one decode proves the value index ran.
	res, err := db.Query(`for $i in collection("items")/Item where $i/@id < 2 return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || xquery.ItemString(res[0]) != "I1" {
		t.Fatalf("results = %v", res)
	}
	st := db.Stats()
	if st.DocsDecoded != 1 {
		t.Fatalf("decoded %d docs, want 1: %+v", st.DocsDecoded, st)
	}
	if st.RangePruned == 0 {
		t.Fatalf("no range pruning recorded: %+v", st)
	}

	// Selectivity sweep over n documents with ids 0..n-1: @id < k matches
	// exactly k of them, so the value index must decode exactly k, while
	// the index-off reference decodes all n at every k.
	const n = 400
	c := xmltree.NewCollection("sweep")
	for i := 0; i < n; i++ {
		c.Add(xmltree.MustParseString(fmt.Sprintf("s%04d", i),
			fmt.Sprintf(`<Item id="%d"><Code>C%d</Code></Item>`, i, i)))
	}
	indexed, scan := testDB(t, Options{}), testDB(t, Options{DisableIndexes: true})
	for _, d := range []*DB{indexed, scan} {
		if err := d.LoadCollection(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, pct := range []int{1, 5, 25, 100} {
		k := n * pct / 100
		q := fmt.Sprintf(`for $i in collection("sweep")/Item where $i/@id < %d return $i/Code`, k)
		for _, tc := range []struct {
			name    string
			db      *DB
			decoded int64
		}{{"indexed", indexed, int64(k)}, {"no indexes", scan, n}} {
			tc.db.ResetStats()
			res, err := tc.db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != k {
				t.Fatalf("%d%% %s: %d results, want %d", pct, tc.name, len(res), k)
			}
			if st := tc.db.Stats(); st.DocsDecoded != tc.decoded {
				t.Fatalf("%d%% %s: decoded %d docs, want %d: %+v", pct, tc.name, st.DocsDecoded, tc.decoded, st)
			}
		}
	}
}

func TestValueIndexStringRange(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	db.ResetStats()
	// Sections are CD, DVD, Book, CD; only "Book" < "CC" in string order.
	res, err := db.Query(`for $i in collection("items")/Item where $i/Section < "CC" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || xquery.ItemString(res[0]) != "I3" {
		t.Fatalf("results = %v", res)
	}
	if st := db.Stats(); st.DocsDecoded != 1 {
		t.Fatalf("decoded %d docs, want 1", st.DocsDecoded)
	}
}

func TestIndexOnlyCount(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	db.ResetStats()
	res, err := db.Query(`count(collection("items")/Item)`)
	if err != nil {
		t.Fatal(err)
	}
	if xquery.ItemString(res[0]) != "4" {
		t.Fatalf("count = %v", res)
	}
	st := db.Stats()
	if st.DocsDecoded != 0 || st.IndexOnlyHits != 1 {
		t.Fatalf("count not index-only: %+v", st)
	}
	// Deeper paths count nodes, not documents.
	res, err = db.Query(`count(collection("items")/Item/Code)`)
	if err != nil {
		t.Fatal(err)
	}
	if xquery.ItemString(res[0]) != "4" {
		t.Fatalf("node count = %v", res)
	}
	if st = db.Stats(); st.DocsDecoded != 0 {
		t.Fatalf("node count decoded documents: %+v", st)
	}
}

func TestIndexOnlyExists(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	db.ResetStats()
	for _, tc := range []struct {
		query, want string
	}{
		{`exists(collection("items")/Item/Section)`, "true"},
		{`exists(collection("items")/Item/Missing)`, "false"},
		{`exists(for $i in collection("items")/Item where $i/Section = "DVD" return $i)`, "true"},
		{`exists(for $i in collection("items")/Item where $i/Section = "Vinyl" return $i)`, "false"},
		{`empty(collection("items")/Item/Missing)`, "true"},
	} {
		res, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if xquery.ItemString(res[0]) != tc.want {
			t.Fatalf("%s = %v, want %s", tc.query, res, tc.want)
		}
	}
	st := db.Stats()
	if st.DocsDecoded != 0 {
		t.Fatalf("exists deciders decoded %d docs: %+v", st.DocsDecoded, st)
	}
	if st.IndexOnlyHits != 5 {
		t.Fatalf("index-only hits = %d, want 5: %+v", st.IndexOnlyHits, st)
	}
}

// TestValueIndexEquivalence: randomized comparison, equality, token,
// substring and existence queries, over Item and wildcard bindings and
// over two scans of the collection, must give the same items in the same
// order with full indexes, with no indexes at all, and from the
// interpreter over the in-memory collection. A second round runs after a
// third of the documents are deleted and re-put in reverse name order, so
// their recycled docIDs are no longer in name order.
func TestValueIndexEquivalence(t *testing.T) {
	const docs = 40
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: docs, Seed: 11})
	oracle := collSource{items}
	dbs := []struct {
		name string
		db   *DB
	}{
		{"full", testDB(t, Options{})},
		{"none", testDB(t, Options{DisableIndexes: true})},
	}
	for _, d := range dbs {
		if err := d.db.LoadCollection(items); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(99))
	word := func() string {
		w := toxgene.DefaultWordPool[rng.Intn(len(toxgene.DefaultWordPool))]
		i := rng.Intn(len(w))
		return w[i : i+1+rng.Intn(len(w)-i)]
	}
	var queries []string
	for i := 0; i < 60; i++ {
		k := rng.Intn(docs + 2)
		op := []string{"<", "<=", ">", ">=", "="}[rng.Intn(5)]
		section := toxgene.Sections[rng.Intn(len(toxgene.Sections))]
		bind := []string{"Item", "*"}[rng.Intn(2)]
		doc := items.Docs[rng.Intn(docs)]
		switch rng.Intn(9) {
		case 0:
			queries = append(queries, fmt.Sprintf(
				`for $i in collection("items")/%s where $i/@id %s %d return $i/Code`, bind, op, k))
		case 1:
			queries = append(queries, fmt.Sprintf(
				`count(for $i in collection("items")/%s where $i/@id %s %d return $i)`, bind, op, k))
		case 2:
			queries = append(queries, fmt.Sprintf(
				`exists(for $i in collection("items")/%s where $i/Section = "%s" return $i)`, bind, section))
		case 3:
			queries = append(queries, fmt.Sprintf(
				`for $i in collection("items")/%s where $i/Section %s "%s" return $i/Code`, bind, op, section))
		case 4:
			queries = append(queries, fmt.Sprintf(
				`for $i in collection("items")/%s where $i/Section = "%s" and $i/@id %s %d return $i/Code`, bind, section, op, k))
		case 5:
			queries = append(queries, fmt.Sprintf(
				`for $i in collection("items")/%s where contains($i/Description, "%s") return $i/Code`, bind, word()))
		case 6:
			queries = append(queries, fmt.Sprintf(
				`for $i in collection("items")/%s where contains($i/Description, "%s") and $i/Section = "%s" return $i/Name`, bind, word(), section))
		case 7: // several tokens, all required
			queries = append(queries, fmt.Sprintf(
				`for $i in collection("items")/%s where $i/Name = "%s" return $i/Code`, bind, doc.Root.Child("Name").Text()))
		case 8:
			queries = append(queries, fmt.Sprintf(
				`for $i in collection("items")/%s where $i/Code = "%s" return $i`, bind, doc.Root.Child("Code").Text()))
		}
	}
	// Several scans of one collection, each pruned by its own constraints
	// only, and numeric-looking string literals, which compare
	// numerically ("5.0" equals @id 5) and so are no token witness.
	for i := 0; i < 12; i++ {
		bind := []string{"Item", "*"}[rng.Intn(2)]
		s1 := toxgene.Sections[rng.Intn(len(toxgene.Sections))]
		s2 := toxgene.Sections[rng.Intn(len(toxgene.Sections))]
		switch i % 4 {
		case 0:
			queries = append(queries, fmt.Sprintf(
				`(for $i in collection("items")/%s where $i/Section = "%s" return $i/Code, for $j in collection("items")/%s return $j/Code)`, bind, s1, bind))
		case 1:
			queries = append(queries, fmt.Sprintf(
				`for $j in collection("items")/%s return <r>{$j/Code}{for $i in collection("items")/%s where $i/Section = "%s" return $i/Code}</r>`, bind, bind, s1))
		case 2:
			queries = append(queries, fmt.Sprintf(
				`count(for $i in collection("items")/%s, $j in collection("items")/%s where $i/Section = "%s" and $j/Section = "%s" return $j)`, bind, bind, s1, s2))
		case 3:
			queries = append(queries, fmt.Sprintf(
				`for $i in collection("items")/%s where $i/@id = "%d.0" return $i/Code`, bind, rng.Intn(docs)))
		}
	}
	queries = append(queries,
		`count(collection("items")/Item)`,
		`for $i in collection("items")/* return $i/Code`,
		`exists(collection("items")/Item/NoSuchChild)`,
		`for $i in collection("items")/Item where $i/@id < "not a number" return $i/Code`,
		// text()-path existence: the Path names the text's element, a
		// necessary condition only.
		`collection("items")/Item/Name/text()`,
		`count(collection("items")/Item/Description/text())`,
		`collection("items")//Section/text()`,
		`exists(collection("items")/Item/NoSuchChild/text())`,
		`for $i in collection("items")/* where exists($i/Section/text()) return $i/Code`,
		`for $i in collection("items")/Item where $i/PictureList/Picture/text() and $i/Section = "CD" return $i/Code`,
	)
	check := func(round string) {
		for _, q := range queries {
			e, err := xquery.Parse(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want, err := xquery.Eval(e, oracle)
			if err != nil {
				t.Fatalf("%s [oracle]: %v", q, err)
			}
			for _, d := range dbs {
				got, err := d.db.Query(q)
				if err != nil {
					t.Fatalf("%s [%s %s]: %v", q, round, d.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s [%s %s]: %d items, want %d", q, round, d.name, len(got), len(want))
				}
				for i := range want {
					if xquery.ItemString(got[i]) != xquery.ItemString(want[i]) {
						t.Fatalf("%s [%s %s]: item %d = %s, want %s",
							q, round, d.name, i, xquery.ItemString(got[i]), xquery.ItemString(want[i]))
					}
				}
			}
		}
	}
	check("loaded")

	// Delete every third document, last name first, and put them back last
	// name first: the free list hands the lowest recycled IDs to the
	// highest names.
	var moved []*xmltree.Document
	for i := 0; i < docs; i += 3 {
		moved = append(moved, items.Docs[i])
	}
	slices.Reverse(moved)
	for _, d := range dbs {
		for _, doc := range moved {
			if err := d.db.DeleteDocument("items", doc.Name); err != nil {
				t.Fatal(err)
			}
		}
		for _, doc := range moved {
			if err := d.db.PutDocument("items", doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix := dbs[0].db.indexFor("items")
	ix.mu.Lock()
	first, last := ix.ids[moved[len(moved)-1].Name], ix.ids[moved[0].Name]
	ix.mu.Unlock()
	if first < last {
		t.Fatalf("recycled docIDs still in name order (%s=%d, %s=%d)",
			moved[len(moved)-1].Name, first, moved[0].Name, last)
	}
	check("recycled")
}

func TestValueOverflowStaysSound(t *testing.T) {
	db := testDB(t, Options{})
	c := xmltree.NewCollection("blobs")
	long := make([]byte, valueCap+10)
	for i := range long {
		long[i] = 'z'
	}
	c.Add(xmltree.MustParseString("b1", `<Blob><V>`+string(long)+`</V></Blob>`))
	c.Add(xmltree.MustParseString("b2", `<Blob><V>short</V></Blob>`))
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
	// The over-cap value is not indexed, but comparisons must still reach
	// the overflowing document: "zzz… > y" is true.
	res, err := db.Query(`for $b in collection("blobs")/Blob where $b/V > "y" return $b/V`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("overflow doc not reached: %d results", len(res))
	}
	// exists() over an overflow path must not answer a false "false" from
	// the index: the decider still runs (and may decode), but is correct.
	res, err = db.Query(`exists(for $b in collection("blobs")/Blob where $b/V = "` + string(long) + `" return $b)`)
	if err != nil {
		t.Fatal(err)
	}
	if xquery.ItemString(res[0]) != "true" {
		t.Fatalf("exists over overflow value = %v", res)
	}
}

// TestIndexConcurrentMutationAndCandidates drives adds, removes, bulk
// loads and candidate evaluation (substring + range constraints) against
// one index from several goroutines; run under -race it checks the
// locking discipline, including the lock-free vocabulary scan. Each
// writer keeps the versions it put, as the store would, to undo them.
func TestIndexConcurrentMutationAndCandidates(t *testing.T) {
	ix := newDocIndex()
	hint := &xquery.Hint{Constraints: []xquery.Constraint{
		{Substring: "pay"},
		{Path: &xquery.PathConstraint{
			Steps: []xquery.LabelStep{{Descendant: true, Name: "Item"}, {Name: "N"}},
			Op:    xquery.CmpLt, Literal: "100",
		}},
	}}
	mkDoc := func(name string, n int) *xmltree.Document {
		return xmltree.MustParseString(name, fmt.Sprintf(
			`<Item id="%d"><N>%d</N><T>payload tok%d</T></Item>`, n, n, n))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			held := map[string]*docPrep{}
			put := func(d *xmltree.Document) {
				p := prepDoc(d)
				held[d.Name] = &p
			}
			for i := 0; i < 300; i++ {
				name := fmt.Sprintf("w%d-d%d", w, i%8)
				switch i % 5 {
				case 0:
					ix.remove(name, held[name])
					delete(held, name)
				case 1:
					docs := []*xmltree.Document{mkDoc(name, i), mkDoc(name+"x", i+1)}
					ix.bulkAdd(docs, held)
					put(docs[0])
					put(docs[1])
				default:
					d := mkDoc(name, i)
					ix.replace(held[name], prepDoc(d))
					put(d)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 600; i++ {
			ids, _, _, _ := ix.candidates(hint)
			for j := 1; j < len(ids); j++ {
				if ids[j-1] >= ids[j] {
					t.Errorf("candidates not strictly sorted: %v", ids)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Converged state answers consistently: with a threshold above every
	// written value, the hint matches every surviving document.
	all := &xquery.Hint{Constraints: []xquery.Constraint{
		{Substring: "pay"},
		{Path: &xquery.PathConstraint{
			Steps: []xquery.LabelStep{{Descendant: true, Name: "Item"}, {Name: "N"}},
			Op:    xquery.CmpLt, Literal: "100000",
		}},
	}}
	ids, constrained, _, _ := ix.candidates(all)
	ix.mu.Lock()
	live := len(ix.ids)
	ix.mu.Unlock()
	if !constrained || len(ids) != live {
		t.Fatalf("candidates = %d docs (constrained %v), index holds %d", len(ids), constrained, live)
	}
}

// candidateNames runs ix.candidates and returns the candidates' names; nil
// when no constraint applied.
func candidateNames(ix *docIndex, hint *xquery.Hint) map[string]bool {
	ids, constrained, _, _ := ix.candidates(hint)
	if !constrained {
		return nil
	}
	set := map[string]bool{}
	for _, name := range ix.docNames(ids) {
		set[name] = true
	}
	return set
}

func TestDocLookupPrefersFirstCollectionAndFallsThrough(t *testing.T) {
	db := testDB(t, Options{})
	for _, col := range []string{"beta", "alpha"} {
		doc := xmltree.MustParseString("dup", fmt.Sprintf(`<D><From>%s</From></D>`, col))
		if err := db.PutDocument(col, doc); err != nil {
			t.Fatal(err)
		}
	}
	d, err := db.Doc("dup")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Root.Child("From").Text(); got != "alpha" {
		t.Fatalf("Doc resolved to %q, want the lexicographically first collection", got)
	}
	if err := db.DeleteDocument("alpha", "dup"); err != nil {
		t.Fatal(err)
	}
	d, err = db.Doc("dup")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Root.Child("From").Text(); got != "beta" {
		t.Fatalf("Doc after delete resolved to %q, want beta", got)
	}
	if err := db.DeleteDocument("beta", "dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Doc("dup"); err == nil {
		t.Fatal("fully deleted doc still found")
	}
}

// BenchmarkIndexReload measures re-indexing a collection whose docIDs come
// back in descending order (the LIFO free list after a delete-all), the
// case where per-document sorted insertion degrades to O(n²) and the bulk
// path's sort-once merge wins.
func BenchmarkIndexReload(b *testing.B) {
	const n = 1500
	shared := make([]string, 0, 32)
	for w := 0; w < 32; w++ {
		shared = append(shared, fmt.Sprintf("shared%02d", w))
	}
	desc := strings.Join(shared, " ")
	docs := make([]*xmltree.Document, n)
	for i := range docs {
		docs[i] = xmltree.MustParseString(fmt.Sprintf("d%d", i), fmt.Sprintf(
			`<Item id="%d"><Code>c%d</Code><Description>%s</Description></Item>`, i, i, desc))
	}
	preps := make([]docPrep, n)
	for i, d := range docs {
		preps[i] = prepDoc(d)
	}
	prime := func() *docIndex {
		ix := newDocIndex()
		ix.bulkAdd(docs, nil)
		for i := range preps {
			ix.remove(preps[i].name, &preps[i])
		}
		return ix
	}
	b.Run("perDoc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ix := prime()
			b.StartTimer()
			for _, d := range docs {
				ix.replace(nil, prepDoc(d))
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ix := prime()
			b.StartTimer()
			ix.bulkAdd(docs, nil)
		}
	})
}
