package wire

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/toxgene"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// render prints an answer in order, nodes as XML, the rest as strings.
func render(seq xquery.Seq) string {
	var b strings.Builder
	for _, it := range seq {
		if n, ok := xquery.NodeOf(it); ok {
			b.WriteString(xmltree.NodeString(n))
		} else {
			b.WriteString(xquery.ItemString(it))
		}
		b.WriteByte('|')
	}
	return b.String()
}

// uncachedAnswer runs text the way no cache can touch: parsed here,
// compiled for this run only (engine.DB.QueryExpr).
func uncachedAnswer(t *testing.T, db *engine.DB, text string) string {
	t.Helper()
	e, err := xquery.Parse(text)
	if err != nil {
		t.Fatalf("%.60s: %v", text, err)
	}
	seq, err := db.QueryExpr(e)
	if err != nil {
		t.Fatalf("%.60s: %v", text, err)
	}
	return render(seq)
}

func driverAnswer(d cluster.Driver, text string) (string, error) {
	var seq xquery.Seq
	_, err := d.Query(text, "", false, func(s xquery.Seq) error {
		seq = append(seq, s...)
		return nil
	})
	return render(seq), err
}

func pricedItem(i, price int) *xmltree.Document {
	return xmltree.MustParseString(fmt.Sprintf("d%03d", i), fmt.Sprintf(
		"<Item><Code>I%03d</Code><Section>S%d</Section><Price>%d</Price></Item>", i, i%4, price))
}

// The prepared-query cache serves shared, read-only entries to concurrent
// sub-queries. Goroutines run a mix of a few repeated texts and more
// distinct point texts than the cache holds — so entries are evicted
// while other goroutines still run them — against one LocalNode and one
// TCP node over the same engine, while node-direct puts and deletes land
// between them, one per round. Every answer must equal an uncached run
// (engine.DB.QueryExpr) on the snapshot before or after that round's
// write. A 1 MiB query text is answered too; it is too long to keep.
func TestPreparedQueriesDifferentialUnderWrites(t *testing.T) {
	db, err := engine.Open(filepath.Join(t.TempDir(), "n.db"), engine.Options{WALNoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	const docs = 48
	for i := 0; i < docs; i++ {
		if err := db.PutDocument("items", pricedItem(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	drivers := []cluster.Driver{NewLocalNode("local", db), dialStream(t, addr, ClientOptions{})}

	var texts []string
	for i := 0; i < 96; i++ { // distinct point texts, more than the cache holds
		texts = append(texts, fmt.Sprintf(`for $i in collection("items")/Item where $i/Code = "I%03d" return $i/Price`, i))
	}
	repeated := []string{
		`count(collection("items")/Item)`,
		`for $i in collection("items")/Item where $i/Section = "S1" return $i`,
		`sum(collection("items")/Item/Price)`,
		`for $i in collection("items")/Item where $i/Price > 20 return $i/Code`,
		`(count(collection("items")/Item), "x")`, // the interpreter
	}
	texts = append(texts, repeated...)
	huge := `for $i in collection("items")/Item where $i/Code = "I005" or $i/Code = "` +
		strings.Repeat("z", 1<<20) + `" return $i/Price`
	texts = append(texts, huge)

	answers := func() []string {
		out := make([]string, len(texts))
		for i, text := range texts {
			out[i] = uncachedAnswer(t, db, text)
		}
		return out
	}
	evictions := obs.EnginePrepareEvictions.Value()
	rng := rand.New(rand.NewSource(1))
	before := answers()
	const rounds, workers, perWorker = 12, 4, 24
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		type answered struct {
			text, got string
			idx       int
			err       error
		}
		results := make(chan answered, workers*perWorker)
		for w := 0; w < workers; w++ {
			seed := rng.Int63()
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				d := drivers[w%len(drivers)]
				for q := 0; q < perWorker; q++ {
					var idx int
					switch {
					case w == 0 && q == 0:
						idx = len(texts) - 1 // the huge text, once a round
					case r.Intn(2) == 0:
						idx = len(texts) - 1 - len(repeated) + r.Intn(len(repeated))
					default:
						idx = r.Intn(len(texts) - 1 - len(repeated))
					}
					got, err := driverAnswer(d, texts[idx])
					results <- answered{texts[idx], got, idx, err}
				}
			}(w)
		}
		// One node-direct write per round, racing the readers: replace an
		// Item's price, add a new one or delete one.
		i := rng.Intn(docs + 8)
		switch round % 3 {
		case 0, 1:
			err = db.PutDocument("items", pricedItem(i, 100+round))
		default:
			err = db.DeleteDocument("items", fmt.Sprintf("d%03d", i))
		}
		if err != nil && !strings.Contains(err.Error(), "not found") {
			t.Fatal(err)
		}
		wg.Wait()
		close(results)
		after := answers()
		for a := range results {
			if a.err != nil {
				t.Fatalf("round %d: %.60s: %v", round, a.text, a.err)
			}
			if a.got != before[a.idx] && a.got != after[a.idx] {
				t.Fatalf("round %d: %.60s answered %q, uncached before the write %q, after it %q",
					round, a.text, a.got, before[a.idx], after[a.idx])
			}
		}
		before = after
	}
	if obs.EnginePrepareEvictions.Value() == evictions {
		t.Fatal("no prepared entry was evicted: the texts do not outnumber the cache")
	}
}

// The cost class of a repeated point sub-query on a node configured as
// partixd and the benchmark run one, with a flight recorder and a
// workload profiler: the text is parsed once, a repeat allocates at most
// 0.6 times what its first run allocated (each run parsing, compiling
// and analysing afresh, a repeat allocates as much as a first run), and
// what the profiler, the flight recorder and the compiled-query counters
// observe is what per-query analysis of the same traffic gives.
func TestRepeatedSubQueryIsPreparedOnce(t *testing.T) {
	db, err := engine.Open(filepath.Join(t.TempDir(), "n.db"), engine.Options{WALNoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.LoadCollection(toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 300, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(0)
	rec.SetSampleEvery(1)
	rec.SetSlowThreshold(100 * time.Millisecond)
	prof := obs.NewWorkloadProfiler(0)
	n := &LocalNode{name: "n", srv: NewServerLogger(db, nil, ServerOptions{Recorder: rec, Profiler: prof})}
	var served []string // every text the node served, in order
	run := func(text string) {
		if _, err := n.Query(text, "", false, func(xquery.Seq) error { return nil }); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	serve := func(text string) {
		served = append(served, text)
		run(text)
	}
	// A first query builds the collection's shared snapshot refs, so the
	// first run of the measured text pays only for the text itself.
	serve(`for $i in collection("items")/Item where $i/Code = "I000003" return $i`)

	const point = `for $i in collection("items")/Item where $i/Code = "I000007" return $i`
	misses, hits := obs.EnginePrepareMisses.Value(), obs.EnginePrepareHits.Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	run(point)
	runtime.ReadMemStats(&ms)
	first := float64(ms.Mallocs - mallocs)
	repeat := testing.AllocsPerRun(50, func() { run(point) }) // 51 runs
	for i := 0; i < 52; i++ {
		served = append(served, point)
	}
	t.Logf("point sub-query: first run %.0f allocations, a repeat %.1f (ratio %.2f)", first, repeat, repeat/first)
	if repeat > 0.6*first {
		t.Errorf("a repeated point sub-query allocates %.1f, its first run %.0f: want at most 0.6x", repeat, first)
	}
	if dm, dh := obs.EnginePrepareMisses.Value()-misses, obs.EnginePrepareHits.Value()-hits; dm != 1 || dh != 51 {
		t.Errorf("51 runs of one text: %d misses, %d hits; want it parsed once", dm, dh)
	}

	// Compiled-run counters count runs, not preparations.
	stats, compiled := db.Stats(), obs.EngineCompiledQueries.Value()
	for i := 0; i < 3; i++ {
		serve(point)
	}
	if d, dobs := db.Stats().Compiled-stats.Compiled, obs.EngineCompiledQueries.Value()-compiled; d != 3 || dobs != 3 {
		t.Errorf("3 compiled runs of one text count %d in Stats.Compiled and %d in the series, want 3", d, dobs)
	}

	// A mix of texts, repeated, interpreted and failing ones among them.
	mix := []string{
		`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
		`count(collection("items")/Item[contains(Description, "good")])`,
		`for $i in collection("items")/Item where $i/@id >= 290   return $i/@id`,
		`(count(collection("items")/Item), "x")`,
		`for $i in collection("items")/Item where $i/Code = 'I000011' return $i`,
	}
	for i := 0; i < 20; i++ {
		serve(mix[i%len(mix)])
	}
	ref := obs.NewWorkloadProfiler(0)
	for _, text := range served {
		e, err := xquery.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for coll, k := range xquery.ExtractWorkloadKeys(e) {
			ref.ObserveQuery(coll, k.Paths, k.Predicates)
		}
	}
	if got, want := prof.Profile(), ref.Profile(); !reflect.DeepEqual(got, want) {
		t.Errorf("profiler snapshot %+v, per-query analysis gives %+v", got, want)
	}
	records := rec.Snapshot(0) // newest first
	if len(records) != len(served) {
		t.Fatalf("%d flight records for %d served queries", len(records), len(served))
	}
	for i, r := range records {
		if want := xquery.NormalizeQueryText(served[len(served)-1-i]); r.Query != want {
			t.Fatalf("flight record %d reads %q, want %q", i, r.Query, want)
		}
	}
}
