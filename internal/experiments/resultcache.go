package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"partix/internal/cluster"
	"partix/internal/fragmentation"
	"partix/internal/obs"
	"partix/internal/partix"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// ResultCacheCompare measures the coordinator result cache and admission
// control on the Figure 7(a) deployment. Three panels share one set of
// node engines:
//
//   - Hit vs cold: the HQ1–HQ8 mix timed with the cache off (every query
//     pays planning plus distributed execution) and then with the cache
//     primed (every query is answered from the coordinator's memory with
//     zero node round-trips). HitSpeedup = ColdNs/HitNs, gated at
//     resultCacheSpeedupFloor.
//   - Correctness under writes: a cache-enabled system and a cache-free
//     reference system share the same node engines; between rounds of
//     interleaved fragment writes both run the full mix and every result
//     multiset is compared. StaleServed counts mismatches and must be 0 —
//     the generation stamps must turn every write into a miss.
//   - Overload: with MaxInflight=1, a short queue and a short queue
//     timeout, a burst of concurrent queries must either be served or be
//     shed with a typed ErrOverloaded — never an untyped error, never an
//     unbounded queue.
type ResultCacheCompare struct {
	Docs      int `json:"docs"`
	Fragments int `json:"fragments"`
	Repeats   int `json:"repeats"`
	Queries   int `json:"queries"` // distinct queries in the mix

	ColdNs            int64   `json:"coldNs"` // mean per-query, cache off
	HitNs             int64   `json:"hitNs"`  // mean per-query, cache hit
	HitSpeedup        float64 `json:"hitSpeedup"`
	HitFasterThanCold bool    `json:"hitFasterThanCold"`
	NonCachedHits     int     `json:"nonCachedHits"` // timed hit-phase queries not served from cache (want 0)
	CacheEntries      int     `json:"cacheEntries"`  // entries after priming the mix
	CacheBytes        int64   `json:"cacheBytes"`    // accounted bytes after priming

	WriterRounds         int   `json:"writerRounds"`
	CheckedReads         int   `json:"checkedReads"`
	StaleServed          int   `json:"staleServed"` // cache-served results that differ from the reference (must be 0)
	HitsDuringWrites     int64 `json:"hitsDuringWrites"`
	InvalidationsOnWrite int64 `json:"invalidationsOnWrite"`

	OverloadSubmitted int  `json:"overloadSubmitted"`
	OverloadServed    int  `json:"overloadServed"`
	OverloadShed      int  `json:"overloadShed"`
	ShedTyped         bool `json:"shedTyped"` // every rejection matched partix.ErrOverloaded
}

// resultCacheSpeedupFloor is the acceptance floor for the hit-vs-cold
// panel: a cache hit must be at least this many times faster than cold
// distributed execution of the same query.
const resultCacheSpeedupFloor = 20.0

// resultCacheBudget is the byte budget the experiment grants the cache —
// generous against the mix's few-KB entries, so eviction never muddies
// the hit-rate panels (eviction behavior has its own unit tests).
const resultCacheBudget = 64 << 20

// RunResultCache measures the result cache and admission panels on an
// in-process 4-fragment horizontal deployment running the HQ1–HQ8 mix.
func RunResultCache(scale Scale, opts Options) (*ResultCacheCompare, error) {
	opts = opts.withDefaults()
	const fragments = 4
	docs := scale.SmallItems

	scheme, err := workload.HorizontalScheme("items", fragments)
	if err != nil {
		return nil, err
	}
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: docs, Seed: scale.Seed})
	d, err := Deploy("resultcache", items, scheme, fragmentation.FragModeSD, opts)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	sys := d.System

	queries := workload.Horizontal("items")
	cmp := &ResultCacheCompare{
		Docs:      docs,
		Fragments: fragments,
		Repeats:   opts.Repeats,
		Queries:   len(queries),
	}

	// Panel 1 — hit vs cold. Warm up once with the cache off so plans are
	// cached and trees paged in: "cold" means cold RESULT cache over an
	// otherwise steady-state system, which is the smallest (hardest)
	// baseline the hit path can be compared against.
	if err := runQueryMix(sys, queries); err != nil {
		return nil, err
	}
	iters := 2 * opts.Repeats
	if iters < 10 {
		iters = 10
	}
	coldT := make([][]time.Duration, len(queries))
	for it := 0; it < iters; it++ {
		for qi, q := range queries {
			start := time.Now()
			if _, err := sys.Query(q.Text); err != nil {
				return nil, fmt.Errorf("%s cold: %w", q.ID, err)
			}
			coldT[qi] = append(coldT[qi], time.Since(start))
		}
	}
	sys.SetResultCacheBytes(resultCacheBudget)
	if err := runQueryMix(sys, queries); err != nil { // priming pass: all misses, all populate
		return nil, err
	}
	cmp.CacheEntries = sys.ResultCacheSize()
	cmp.CacheBytes = sys.ResultCacheBytes()
	hitT := make([][]time.Duration, len(queries))
	for it := 0; it < iters; it++ {
		for qi, q := range queries {
			start := time.Now()
			res, err := sys.Query(q.Text)
			hitD := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s hit: %w", q.ID, err)
			}
			if !res.Cached {
				cmp.NonCachedHits++
			}
			hitT[qi] = append(hitT[qi], hitD)
		}
	}
	var coldSum, hitSum time.Duration
	for qi := range queries {
		coldSum += medianDuration(coldT[qi])
		hitSum += medianDuration(hitT[qi])
	}
	cmp.ColdNs = coldSum.Nanoseconds() / int64(len(queries))
	cmp.HitNs = hitSum.Nanoseconds() / int64(len(queries))
	if cmp.HitNs > 0 {
		cmp.HitSpeedup = float64(cmp.ColdNs) / float64(cmp.HitNs)
	}
	cmp.HitFasterThanCold = cmp.NonCachedHits == 0 && cmp.HitSpeedup >= resultCacheSpeedupFloor

	// Panel 2 — correctness under writes. A reference coordinator shares
	// the very same node engines but runs with the cache off, so after
	// every write round the cache-enabled system's answers can be checked
	// against ground truth computed fresh from the same data.
	ref := partix.NewSystem(*opts.Cost)
	for _, name := range sys.Nodes() {
		ref.AddNode(sys.Node(name))
	}
	meta := sys.Catalog().Lookup("items")
	if meta == nil {
		return nil, errors.New("items not in catalog")
	}
	err = ref.Catalog().Register(&partix.CollectionMeta{
		Name: "items", Scheme: scheme, Placement: meta.Placement, Mode: fragmentation.FragModeSD,
	})
	if err != nil {
		return nil, err
	}
	// Statistics must be refetched per query on both sides: the cache
	// system so a fragment write invalidates immediately (the bound the
	// panel asserts), the reference so its planner sees the new documents.
	sys.SetStatsTTL(0)
	ref.SetStatsTTL(0)

	rounds := 2 * opts.Repeats
	if rounds < 6 {
		rounds = 6
	}
	cmp.WriterRounds = rounds
	hits0 := obs.CoordResultCacheHits.Value()
	inv0 := obs.CoordResultCacheInvalidations.Value()
	writeSections := []string{"CD", "DVD", "Book", "Game"}
	for r := 0; r < rounds; r++ {
		// One write per round, rotating across fragments. The document
		// satisfies its fragment's predicate, so fragmentation correctness
		// holds and both coordinators must agree on every query.
		sec := writeSections[r%len(writeSections)]
		frag, node := fragmentFor(scheme, meta.Placement, sec)
		if frag == "" {
			return nil, fmt.Errorf("no fragment accepts Section=%q", sec)
		}
		doc := xmltree.MustParseString(fmt.Sprintf("w%03d", r), fmt.Sprintf(
			`<Item id="%d"><Code>W%03d</Code><Name>written%d</Name><Description>a good write</Description><Section>%s</Section></Item>`,
			1_000_000+r, r, r, sec))
		if err := sys.Node(node).StoreDocument(meta.NodeCollection(frag), doc); err != nil {
			return nil, fmt.Errorf("round %d write: %w", r, err)
		}
		for _, q := range queries {
			got, err := sys.Query(q.Text)
			if err != nil {
				return nil, fmt.Errorf("round %d %s cached: %w", r, q.ID, err)
			}
			want, err := ref.Query(q.Text)
			if err != nil {
				return nil, fmt.Errorf("round %d %s reference: %w", r, q.ID, err)
			}
			cmp.CheckedReads++
			if !sameItemMultiset(got.Items, want.Items) {
				cmp.StaleServed++
			}
		}
		// Re-read the mix so the next round's write hits a populated
		// cache — that second read is the one a stale cache would poison.
		if err := runQueryMix(sys, queries); err != nil {
			return nil, err
		}
	}
	cmp.HitsDuringWrites = obs.CoordResultCacheHits.Value() - hits0
	cmp.InvalidationsOnWrite = obs.CoordResultCacheInvalidations.Value() - inv0

	// Panel 3 — overload. A third coordinator wraps the same nodes in a
	// fixed per-query delay, standing in for nodes under load: the delay
	// guarantees the burst's queries genuinely overlap (a fast local
	// engine on a small host can serialize a burst so completely that
	// nothing ever queues). Cache off (hits would bypass the admission
	// queue), one execution slot, a two-deep queue and a short wait: the
	// burst must split cleanly into served and typed-shed, with nothing
	// lost and nothing queued without bound.
	ov := partix.NewSystem(*opts.Cost)
	for _, name := range sys.Nodes() {
		ov.AddNode(&slowNode{Driver: sys.Node(name), delay: 10 * time.Millisecond})
	}
	err = ov.Catalog().Register(&partix.CollectionMeta{
		Name: "items", Scheme: scheme, Placement: meta.Placement, Mode: fragmentation.FragModeSD,
	})
	if err != nil {
		return nil, err
	}
	ov.SetMaxInflight(1)
	ov.SetMaxQueued(2)
	ov.SetQueueTimeout(2 * time.Millisecond)
	const burst = 32
	overloadQuery := queries[0].Text
	var wg sync.WaitGroup
	var mu sync.Mutex
	var untyped error
	served, shed := 0, 0
	cmp.OverloadSubmitted = burst
	start := make(chan struct{})
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := ov.Query(overloadQuery)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, partix.ErrOverloaded):
				shed++
			default:
				shed++
				if untyped == nil {
					untyped = err
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	cmp.OverloadServed = served
	cmp.OverloadShed = shed
	cmp.ShedTyped = untyped == nil && served+shed == burst
	if untyped != nil {
		return nil, fmt.Errorf("overload rejection not typed ErrOverloaded: %w", untyped)
	}
	return cmp, nil
}

// slowNode wraps a node driver in a fixed per-query delay, standing in
// for a node under load. Only the core Driver surface is forwarded, so
// the wrapped node advertises no statistics extension.
type slowNode struct {
	cluster.Driver
	delay time.Duration
}

func (n *slowNode) Query(q, tag string, trace bool, yield func(xquery.Seq) error) ([]obs.Span, error) {
	time.Sleep(n.delay)
	return n.Driver.Query(q, tag, trace, yield)
}

// runQueryMix runs every query in the mix once.
func runQueryMix(sys *partix.System, queries []workload.Query) error {
	for _, q := range queries {
		if _, err := sys.Query(q.Text); err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
	}
	return nil
}

// fragmentFor returns the fragment (and its node) whose predicate accepts
// an Item with the given Section, by probing each fragment's predicate
// against a one-item collection.
func fragmentFor(scheme *fragmentation.Scheme, placement map[string]string, section string) (string, string) {
	probe := xmltree.NewCollection("probe")
	probe.Add(xmltree.MustParseString("probe", fmt.Sprintf(
		`<Item id="0"><Section>%s</Section></Item>`, section)))
	for _, f := range scheme.Fragments {
		out, err := f.Apply(probe)
		if err == nil && len(out.Docs) == 1 {
			return f.Name, placement[f.Name]
		}
	}
	return "", ""
}

// sameItemMultiset compares two result multisets order-insensitively
// (unlike exec's order-sensitive sameItems): the cached entry preserves
// its execution's merge order, which a replanned reference run need not
// reproduce.
func sameItemMultiset(a, b xquery.Seq) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = xquery.ItemString(a[i])
	}
	for i := range b {
		bs[i] = xquery.ItemString(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// PrintResultCache renders the comparison for the bench's stdout report.
func PrintResultCache(w io.Writer, c *ResultCacheCompare) {
	fmt.Fprintf(w, "\nResult cache + admission (HQ1–HQ8 mix, %d docs, %d fragments, %d repeats):\n",
		c.Docs, c.Fragments, c.Repeats)
	fmt.Fprintf(w, "  cold execution  %12s/query (median)\n", time.Duration(c.ColdNs))
	fmt.Fprintf(w, "  cache hit       %12s/query (median)  %.0fx faster (floor %.0fx, met: %t)\n",
		time.Duration(c.HitNs), c.HitSpeedup, resultCacheSpeedupFloor, c.HitFasterThanCold)
	fmt.Fprintf(w, "  cache after priming: %d entries, %d bytes accounted\n", c.CacheEntries, c.CacheBytes)
	fmt.Fprintf(w, "  concurrent-writer rounds: %d  checked reads: %d  stale served: %d  (hits during writes: %d, invalidations: %d)\n",
		c.WriterRounds, c.CheckedReads, c.StaleServed, c.HitsDuringWrites, c.InvalidationsOnWrite)
	fmt.Fprintf(w, "  overload burst: %d submitted = %d served + %d shed, all rejections typed: %t\n",
		c.OverloadSubmitted, c.OverloadServed, c.OverloadShed, c.ShedTyped)
}
