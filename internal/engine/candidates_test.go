package engine

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"partix/internal/toxgene"
	"partix/internal/xquery"
)

// pathOnlyHintQueries have hints with no element name or token: a
// wildcard binding carries only a path constraint, and a range term adds
// a value constraint over that path.
var pathOnlyHintQueries = []struct {
	query string
	want  []string
}{
	{`for $x in collection("items")/* return $x/Code`, []string{"I1", "I2", "I3", "I4"}},
	{`for $x in collection("items")/* where $x/@id > 2 return $x/Code`, []string{"I3", "I4"}},
}

// queryCodes runs q on a freshly reset DB and returns its items as strings.
func queryCodes(t *testing.T, db *DB, q string) []string {
	t.Helper()
	db.ResetStats()
	got, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var codes []string
	for _, it := range got {
		codes = append(codes, xquery.ItemString(it))
	}
	return codes
}

// TestPathOnlyHintWithoutPathIndex: when the path structures are
// unavailable (indexes disabled), no constraint of a path-only hint
// applies and no document may be pruned — an unapplied conjunction is
// "every document", not "none".
func TestPathOnlyHintWithoutPathIndex(t *testing.T) {
	db := testDB(t, Options{DisableIndexes: true})
	loadItems(t, db)
	for _, tc := range pathOnlyHintQueries {
		if codes := queryCodes(t, db, tc.query); !slices.Equal(codes, tc.want) {
			t.Fatalf("%s = %v, want %v", tc.query, codes, tc.want)
		}
		if st := db.Stats(); st.DocsPruned != 0 || st.DocsDecoded != 4 {
			t.Fatalf("%s: pruned %d, decoded %d; want 0 and 4", tc.query, st.DocsPruned, st.DocsDecoded)
		}
	}
}

// TestPathOnlyHintPrunes: with indexes on, path constraints always apply,
// so a path-only hint keeps every matching document and a range term over
// that path prunes exactly the documents outside the range.
func TestPathOnlyHintPrunes(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	for _, tc := range pathOnlyHintQueries {
		if codes := queryCodes(t, db, tc.query); !slices.Equal(codes, tc.want) {
			t.Fatalf("%s = %v, want %v", tc.query, codes, tc.want)
		}
		pruned := int64(4 - len(tc.want))
		if st := db.Stats(); st.DocsDecoded != int64(len(tc.want)) || st.DocsPruned != pruned || st.RangePruned != pruned {
			t.Fatalf("%s: decoded %d, pruned %d, range-pruned %d; want %d, %d, %d",
				tc.query, st.DocsDecoded, st.DocsPruned, st.RangePruned, len(tc.want), pruned, pruned)
		}
	}
}

// TestCandidateSelectionSizeIndependent: a point query's candidate
// selection allocates per candidate, not per document of the collection.
// The same HQ2-shaped equality query over 300 and 3,000 Items must allocate
// about the same bytes per snapshotForQuery call. Meaningful without -race
// (verify.sh runs it so), though the ratio holds under it too.
func TestCandidateSelectionSizeIndependent(t *testing.T) {
	const calls = 200
	e, err := xquery.Parse(`for $i in collection("items")/Item where $i/Code = "I000007" return $i`)
	if err != nil {
		t.Fatal(err)
	}
	hint := xquery.ExtractHints(e)["items"]
	perCall := map[int]uint64{}
	for _, docs := range []int{300, 3000} {
		db := testDB(t, Options{WALNoFsync: true})
		if err := db.LoadCollection(toxgene.GenerateItems(toxgene.ItemsConfig{Docs: docs, Seed: 1})); err != nil {
			t.Fatal(err)
		}
		// Warm up: the first snapshot after the load builds the shared refs.
		q, err := db.snapshotForQuery("items", hint)
		if err != nil {
			t.Fatal(err)
		}
		q.snap.Close()
		if len(q.refs) != 1 || q.pruned != docs-1 {
			t.Fatalf("%d docs: %d candidates, %d pruned; want 1 and %d", docs, len(q.refs), q.pruned, docs-1)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			q, err := db.snapshotForQuery("items", hint)
			if err != nil {
				t.Fatal(err)
			}
			q.snap.Close()
		}
		runtime.ReadMemStats(&after)
		perCall[docs] = (after.TotalAlloc - before.TotalAlloc) / calls
	}
	t.Logf("bytes allocated per call: 300 docs %d, 3000 docs %d", perCall[300], perCall[3000])
	if float64(perCall[3000]) > 1.5*float64(perCall[300]) {
		t.Fatalf("candidate selection over 3000 docs allocates %d B/call, over 300 docs %d B/call: want within 1.5x",
			perCall[3000], perCall[300])
	}
}

// TestSortedListOps checks the intersection and union helpers against a
// map-based model on random lists, skewed lengths (the galloping path)
// included.
func TestSortedListOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randList := func(n, universe int) []docID {
		set := map[docID]bool{}
		for len(set) < n && len(set) < universe {
			set[docID(rng.Intn(universe))] = true
		}
		var out []docID
		for id := range set {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}
	for round := 0; round < 500; round++ {
		universe := 1 + rng.Intn(2000)
		k := 1 + rng.Intn(5)
		lists := make([][]docID, k)
		in := map[docID]int{}
		for i := range lists {
			n := rng.Intn(8)
			if rng.Intn(2) == 0 {
				n = rng.Intn(universe + 1) // sometimes long: skews the lengths
			}
			lists[i] = randList(n, universe)
			for _, id := range lists[i] {
				in[id]++
			}
		}
		var wantAnd, wantOr []docID
		for id, c := range in {
			wantOr = append(wantOr, id)
			if c == k {
				wantAnd = append(wantAnd, id)
			}
		}
		slices.Sort(wantAnd)
		slices.Sort(wantOr)
		gotAnd := intersectAll(slices.Clone(lists))
		if !slices.Equal(gotAnd, wantAnd) {
			t.Fatalf("round %d: intersection %v, want %v", round, gotAnd, wantAnd)
		}
		gotOr := unionSorted(slices.Clone(lists))
		if !slices.Equal(gotOr, wantOr) {
			t.Fatalf("round %d: union %v, want %v", round, gotOr, wantOr)
		}
	}
	// A lone non-empty list is returned as is, without a copy.
	one := []docID{1, 4, 9}
	if got := unionSorted([][]docID{nil, one, {}}); &got[0] != &one[0] {
		t.Fatal("union of one non-empty list copied it")
	}
}
