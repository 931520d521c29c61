package wire

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/toxgene"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func TestLocalNodeDriverOperations(t *testing.T) {
	db, err := engine.Open(filepath.Join(t.TempDir(), "n0.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	n := NewLocalNode("n0", db)
	if n.Name() != "n0" || n.DB() != db {
		t.Fatal("node accessors wrong")
	}
	if err := n.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		doc := xmltree.MustParseString(fmt.Sprintf("d%02d", i), fmt.Sprintf("<Item><Code>I%d</Code></Item>", i))
		if err := n.StoreDocument("c", doc); err != nil {
			t.Fatal(err)
		}
	}
	if !n.HasCollection("c") || n.HasCollection("ghost") {
		t.Fatal("HasCollection wrong")
	}
	var items xquery.Seq
	if _, err := n.Query(countQuery, "", false, func(s xquery.Seq) error {
		items = append(items, s...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || xquery.ItemString(items[0]) != "3" {
		t.Fatalf("count = %v", items)
	}
	col, err := n.Fetch("c", cluster.FetchSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 3 || xmltree.SerializeString(col.Docs[1]) != "<Item><Code>I1</Code></Item>" {
		t.Fatalf("fetched %d docs", col.Len())
	}
	// A projected fetch decodes each document under the trie: the zero
	// projection keeps only the root element.
	col, err = n.Fetch("c", cluster.FetchSpec{Keep: &xmltree.Projection{}})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 3 || xmltree.SerializeString(col.Docs[1]) != "<Item/>" {
		t.Fatalf("projected fetch: %d docs, %s", col.Len(), xmltree.SerializeString(col.Docs[1]))
	}
	st, err := n.CollectionStats("c")
	if err != nil || st.Documents != 3 {
		t.Fatalf("stats = %+v, %v", st, err)
	}
}

// delivery is one query's answer as a driver delivered it: its batches in
// order and the names of the node's spans.
type delivery struct {
	batches []xquery.Seq
	spans   []string
}

func deliver(t *testing.T, d cluster.Driver, q string, trace bool) delivery {
	t.Helper()
	var out delivery
	spans, err := d.Query(q, "", trace, func(s xquery.Seq) error {
		out.batches = append(out.batches, s)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %s: %v", d.Name(), q, err)
	}
	for _, sp := range spans {
		out.spans = append(out.spans, sp.Name)
	}
	return out
}

// The in-process driver is the TCP one minus the socket: over one engine,
// every query arrives through LocalNode batch for batch as it does
// through a Client — the same items per batch, of the same types (stored
// nodes as storage.DeferredNodes), the same SeqBytes per batch, equal
// trees once unwrapped, and the same node spans when traced. The queries
// cover whole stored Items (shells), a projected child, a fold, a scan of
// more documents than one chunk holds, the interpreter and a traced run.
func TestDriversDeliverAlike(t *testing.T) {
	db := itemsStore(t, 600, 8)
	if err := db.Store().CreateCollection("m"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		doc := xmltree.MustParseString(fmt.Sprintf("m%03d", i),
			fmt.Sprintf("<Item><Code>M%d</Code><Note>%s</Note></Item>", i, strings.Repeat("m", i%7)))
		if err := db.PutDocument("m", doc); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	local, remote := NewLocalNode("local", db), dialStream(t, addr, ClientOptions{})
	cases := []struct {
		name, query string
		trace       bool
		batches     int
	}{
		{"stored items", `for $i in collection("c")/Items/Item return $i`, false, 3},
		{"projected child", `for $i in collection("c")/Items/Item return $i/Code`, false, 3},
		{"count", `count(collection("c")/Items/Item)`, false, 1},
		{"multi-chunk scan", `for $d in collection("m")/Item return $d`, false, 1},
		{"interpreter", `(count(collection("m")/Item), "x", 1 = 1, collection("m")/Item/Code)`, false, 1},
		{"traced", `for $i in collection("c")/Items/Item where $i/Code = "I007" return $i`, true, 1},
	}
	for c, tc := range cases {
		l, r := deliver(t, local, tc.query, tc.trace), deliver(t, remote, tc.query, tc.trace)
		if len(l.batches) != tc.batches || len(r.batches) != tc.batches {
			t.Fatalf("%s: %d local and %d remote batches, want %d", tc.name, len(l.batches), len(r.batches), tc.batches)
		}
		if _, ok := l.batches[0][0].(xquery.DeferredNode); c == 0 && !ok {
			t.Fatalf("%s: a stored Item arrived as %T, not deferred", tc.name, l.batches[0][0])
		}
		for b := range l.batches {
			lb, rb := l.batches[b], r.batches[b]
			if len(lb) != len(rb) {
				t.Fatalf("%s batch %d: %d local items, %d remote", tc.name, b, len(lb), len(rb))
			}
			if lbytes, rbytes := cluster.SeqBytes(lb), cluster.SeqBytes(rb); lbytes != rbytes {
				t.Fatalf("%s batch %d: SeqBytes %d local, %d remote", tc.name, b, lbytes, rbytes)
			}
			for i := range lb {
				if lt, rt := fmt.Sprintf("%T", lb[i]), fmt.Sprintf("%T", rb[i]); lt != rt {
					t.Fatalf("%s batch %d item %d: %s local, %s remote", tc.name, b, i, lt, rt)
				}
				ln, lok := xquery.NodeOf(lb[i])
				rn, rok := xquery.NodeOf(rb[i])
				if lok != rok || (lok && !xmltree.Equal(ln, rn)) || xquery.ItemString(lb[i]) != xquery.ItemString(rb[i]) {
					t.Fatalf("%s batch %d item %d differs: %v local, %v remote", tc.name, b, i, lb[i], rb[i])
				}
			}
		}
		if !slices.Equal(l.spans, r.spans) {
			t.Fatalf("%s: spans %v local, %v remote", tc.name, l.spans, r.spans)
		}
		if want := []string{"parse", "plan", "execute", "serialize"}; tc.trace && !slices.Equal(l.spans, want) {
			t.Fatalf("%s: traced spans %v, want %v", tc.name, l.spans, want)
		}
	}
}

// The cost class of a point sub-query on one LocalNode: an indexed
// equality over 300 and over 3000 stored Items allocates the same objects
// and bytes per sub-query — the index picks the one candidate, and
// nothing between the engine and the delivered batch walks the
// collection.
func TestLocalPointQueryCostIndependentOfCollectionSize(t *testing.T) {
	const calls = 200
	const q = `for $i in collection("items")/Item where $i/Code = "I000007" return $i`
	type cost struct {
		allocs float64
		bytes  uint64
	}
	costs := map[int]cost{}
	for _, docs := range []int{300, 3000} {
		db, err := engine.Open(filepath.Join(t.TempDir(), "n.db"), engine.Options{WALNoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.LoadCollection(toxgene.GenerateItems(toxgene.ItemsConfig{Docs: docs, Seed: 1})); err != nil {
			t.Fatal(err)
		}
		n := NewLocalNode("n", db)
		run := func() {
			items := 0
			if _, err := n.Query(q, "", false, func(s xquery.Seq) error {
				items += len(s)
				return nil
			}); err != nil || items != 1 {
				t.Fatalf("%d docs: %d items, %v", docs, items, err)
			}
		}
		run() // the first snapshot after the load builds the shared refs
		allocs := testing.AllocsPerRun(calls, run)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		costs[docs] = cost{allocs, (after.TotalAlloc - before.TotalAlloc) / calls}
	}
	t.Logf("per sub-query: 300 docs %+v, 3000 docs %+v", costs[300], costs[3000])
	if costs[3000].allocs > costs[300].allocs || float64(costs[3000].bytes) > 1.1*float64(costs[300].bytes) {
		t.Fatalf("a point sub-query over 3000 docs costs %+v, over 300 docs %+v: want the same",
			costs[3000], costs[300])
	}
}

// Concurrent sub-queries on one LocalNode draw their engine.Origins from
// its pool: each stream ships its stored Items from its own chunks'
// records, whatever ran on the Origins before it (run it under -race).
func TestLocalNodeConcurrentStreamsShareOriginsPool(t *testing.T) {
	db, err := engine.Open(filepath.Join(t.TempDir(), "n.db"), engine.Options{WALNoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	c := xmltree.NewCollection("m")
	for i := 0; i < 150; i++ {
		c.Add(xmltree.MustParseString(fmt.Sprintf("m%03d", i),
			fmt.Sprintf("<Item><Code>M%d</Code><Note>%s</Note></Item>", i, strings.Repeat("m", i%7))))
	}
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
	n := NewLocalNode("n", db)
	queries := []string{
		`for $d in collection("m")/Item return $d`,
		`for $d in collection("m")/Item where $d/Note = "mmm" return $d`,
		`count(collection("m")/Item)`,
	}
	answer := func(q string) (string, error) {
		var b strings.Builder
		_, err := n.Query(q, "", false, func(s xquery.Seq) error {
			for _, it := range s {
				if node, ok := xquery.NodeOf(it); ok {
					b.WriteString(xmltree.NodeString(node))
				} else {
					b.WriteString(xquery.ItemString(it))
				}
			}
			return nil
		})
		return b.String(), err
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		if want[i], err = answer(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 15; r++ {
				i := (g + r) % len(queries)
				if got, err := answer(queries[i]); err != nil || got != want[i] {
					t.Errorf("%s: %v, answer differs from the sequential one: %v", queries[i], err, got != want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
