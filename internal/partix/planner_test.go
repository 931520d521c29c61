package partix

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"partix/internal/cluster"
	"partix/internal/fragmentation"
	"partix/internal/lru"
	"partix/internal/obs"
	"partix/internal/wire"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// quartileDocs builds n items whose Section tracks the @id quartile
// (S0..S3), so Section-equality fragmentation gives each fragment a
// disjoint @id range — which the fragmentation predicates say nothing
// about. Only fragment statistics can prove an @id-range query empty on
// three of the four fragments.
func quartileDocs(n int) *xmltree.Collection {
	c := xmltree.NewCollection("pitems")
	q := n / 4
	for i := 0; i < n; i++ {
		sec := i / q
		if sec > 3 {
			sec = 3
		}
		c.Add(xmltree.MustParseString(fmt.Sprintf("p%03d", i), fmt.Sprintf(
			`<Item id="%d"><Code>P%03d</Code><Section>S%d</Section></Item>`, i, i, sec)))
	}
	return c
}

func quartileScheme() *fragmentation.Scheme {
	frags := make([]*fragmentation.Fragment, 4)
	for i := range frags {
		frags[i] = fragmentation.MustHorizontal(fmt.Sprintf("FS%d", i),
			fmt.Sprintf(`/Item/Section = "S%d"`, i))
	}
	return &fragmentation.Scheme{Collection: "pitems", Fragments: frags}
}

// publishQuartile deploys the quartile collection over 4 nodes.
func publishQuartile(t *testing.T, s *System, docs int) {
	t.Helper()
	placement := map[string]string{}
	for i := 0; i < 4; i++ {
		placement[fmt.Sprintf("FS%d", i)] = fmt.Sprintf("node%d", i)
	}
	err := s.Publish(quartileDocs(docs), quartileScheme(), placement,
		PublishOptions{CheckCorrectness: true})
	if err != nil {
		t.Fatal(err)
	}
}

// itemStrings renders a result multiset order-insensitively.
func itemStrings(items xquery.Seq) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = xquery.ItemString(it)
	}
	sort.Strings(out)
	return out
}

func TestPlannerSkipsProvablyEmptyFragments(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32) // quartiles of 8: FS0 holds ids 0..7
	skippedBefore := obs.CoordFragmentsSkipped.Value()

	// @id < 4 cannot be pruned by the Section fragmentation predicates,
	// but statistics prove FS1..FS3 (ids >= 8) empty.
	res, err := s.Query(`for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(res.Items))
	}
	if len(res.SkippedFragments) != 3 {
		t.Fatalf("skipped = %v, want FS1..FS3", res.SkippedFragments)
	}
	if len(res.Sub) != 1 || res.Sub[0].Fragment != "FS0" {
		t.Fatalf("contacted fragments: %+v", res.Sub)
	}
	if got := obs.CoordFragmentsSkipped.Value() - skippedBefore; got != 3 {
		t.Fatalf("skip counter moved by %d, want 3", got)
	}

	// Same answer as a statistics-blind run.
	naive := newTestSystem(t, 4)
	naive.SetPlannerStats(false)
	publishQuartile(t, naive, 32)
	nres, err := naive.Query(`for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nres.SkippedFragments) != 0 || len(nres.Sub) != 4 {
		t.Fatalf("naive run skipped fragments: %+v", nres)
	}
	if a, b := itemStrings(res.Items), itemStrings(nres.Items); !equalStrings(a, b) {
		t.Fatalf("planned %v != naive %v", a, b)
	}
}

func TestPlannerSkipsAggregateIdentity(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32)
	// A skipped fragment must contribute the identity of each
	// composition: count 0, empty sum, false exists, true empty. The path
	// form's step predicate is the hint statistics prune with: @id < 4
	// leaves FS0 alone, @id < 0 no fragment at all, so the answer is the
	// identity composed over nothing.
	cases := []struct {
		query, want string
		skipped     int
	}{
		{`count(collection("pitems")/Item[@id < 4])`, "4", 3},
		{`exists(collection("pitems")/Item[@id < 4])`, "true", 3},
		{`empty(collection("pitems")/Item[@id < 4])`, "false", 3},
		{`count(collection("pitems")/Item[@id < 0])`, "0", 4},
		{`exists(collection("pitems")/Item[@id < 0])`, "false", 4},
		{`empty(collection("pitems")/Item[@id < 0])`, "true", 4},
	}
	for _, tc := range cases {
		res, err := s.Query(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if len(res.Items) != 1 || xquery.ItemString(res.Items[0]) != tc.want {
			t.Fatalf("%s = %v, want %s", tc.query, res.Items, tc.want)
		}
		if len(res.SkippedFragments) != tc.skipped || len(res.Sub) != 4-tc.skipped {
			t.Fatalf("%s: skipped %v and contacted %d fragments, want %d skipped",
				tc.query, res.SkippedFragments, len(res.Sub), tc.skipped)
		}
	}
}

// Randomized planned-vs-naive equivalence: whatever the planner skips or
// reorders, answers match a statistics-blind system on the same data.
func TestPlannerRandomizedEquivalence(t *testing.T) {
	planned := newTestSystem(t, 4)
	publishQuartile(t, planned, 24)
	naive := newTestSystem(t, 4)
	naive.SetPlannerStats(false)
	publishQuartile(t, naive, 24)

	rng := rand.New(rand.NewSource(7))
	ops := []string{"<", "<=", ">", ">=", "="}
	for i := 0; i < 40; i++ {
		var q string
		switch rng.Intn(4) {
		case 0:
			q = fmt.Sprintf(`for $i in collection("pitems")/Item where $i/@id %s %d return $i/Code`,
				ops[rng.Intn(len(ops))], rng.Intn(30)-2)
		case 1:
			q = fmt.Sprintf(`for $i in collection("pitems")/Item where $i/Section = "S%d" return $i/@id`,
				rng.Intn(6))
		case 2:
			q = fmt.Sprintf(`count(collection("pitems")/Item[@id %s %d])`,
				ops[rng.Intn(len(ops))], rng.Intn(30))
		case 3:
			q = fmt.Sprintf(`sum(collection("pitems")/Item[@id < %d]/@id)`, rng.Intn(30))
		}
		pr, err := planned.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		nr, err := naive.Query(q)
		if err != nil {
			t.Fatalf("%s (naive): %v", q, err)
		}
		if a, b := itemStrings(pr.Items), itemStrings(nr.Items); !equalStrings(a, b) {
			t.Fatalf("%s: planned %v != naive %v (skipped %v)", q, a, b, pr.SkippedFragments)
		}
	}

	// Membership: equality on a high-cardinality code and on ids written
	// as numbers in other forms ("1e2" is 100, "-0" is 0), NaN, strings,
	// over-cap values, deletes and re-puts, all written on the nodes
	// directly between the queries. Fragments skip only by what their
	// filters prove absent.
	long := strings.Repeat("L", 200) // over the index's value cap
	ids := []string{"100", "1e2", "-0", "0", "NaN", "abc", "2.50", "7", long, "P001"}
	codes := []string{"P000", "P005", "P011", "P023", "P010A", "W1", "W17", "1e2", "100", long}
	written := map[string]bool{}
	skips := 0
	for i := 0; i < 200; i++ {
		if rng.Intn(3) == 0 {
			f := rng.Intn(4)
			name := fmt.Sprintf("w%02d", rng.Intn(30))
			coll := fmt.Sprintf("pitems::FS%d", f)
			del := written[coll+name] && rng.Intn(2) == 0
			for _, s := range []*System{planned, naive} {
				node := s.Node(fmt.Sprintf("node%d", f)).(*wire.LocalNode)
				if del {
					if err := node.DB().DeleteDocument(coll, name); err != nil {
						t.Fatal(err)
					}
					continue
				}
				doc := xmltree.NewDocument(name, xmltree.NewElement("Item",
					xmltree.NewAttr("id", ids[i%len(ids)]),
					xmltree.NewElement("Code", xmltree.NewText(codes[(i/len(ids)+i)%len(codes)])),
					xmltree.NewElement("Section", xmltree.NewText(fmt.Sprintf("S%d", f)))))
				if err := node.StoreDocument(coll, doc); err != nil {
					t.Fatal(err)
				}
			}
			written[coll+name] = !del
			continue
		}
		var q string
		if rng.Intn(2) == 0 {
			lit := ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				q = fmt.Sprintf(`for $i in collection("pitems")/Item where $i/@id = "%s" return $i/Code`, lit)
			} else {
				q = fmt.Sprintf(`count(collection("pitems")/Item[@id = "%s"])`, lit)
			}
		} else {
			q = fmt.Sprintf(`for $i in collection("pitems")/Item where $i/Code = "%s" return $i/@id`,
				codes[rng.Intn(len(codes))])
		}
		pr, err := planned.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		nr, err := naive.Query(q)
		if err != nil {
			t.Fatalf("%s (naive): %v", q, err)
		}
		if a, b := itemStrings(pr.Items), itemStrings(nr.Items); !equalStrings(a, b) {
			t.Fatalf("op %d: %s: planned %v != naive %v (skipped %v)", i, q, a, b, pr.SkippedFragments)
		}
		skips += len(pr.SkippedFragments)
	}
	if skips == 0 {
		t.Fatal("no fragment was skipped: the membership arm tests nothing")
	}
	t.Logf("membership arm: %d fragments skipped", skips)
}

func TestPlanCacheHit(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`

	r1, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanCached {
		t.Fatal("first execution reported a cached plan")
	}
	// A hit reuses the cached plan outright: one hit, no miss (a miss is
	// what parses and plans).
	hits, misses := obs.CoordPlanCacheHits.Value(), obs.CoordPlanCacheMisses.Value()
	r2, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.PlanCached {
		t.Fatal("second execution did not hit the plan cache")
	}
	if dh, dm := obs.CoordPlanCacheHits.Value()-hits, obs.CoordPlanCacheMisses.Value()-misses; dh != 1 || dm != 0 {
		t.Fatalf("second execution moved plan-cache hits by %d and misses by %d, want 1 and 0", dh, dm)
	}
	if a, b := itemStrings(r1.Items), itemStrings(r2.Items); !equalStrings(a, b) {
		t.Fatalf("cached plan changed the answer: %v vs %v", a, b)
	}
	if s.planCache.Len() == 0 {
		t.Fatal("cache empty after hits")
	}
}

// A plan-cache hit — lookup plus stampsCurrent over the plan's four
// statistics stamps — allocates nothing: it is the path every repeat
// query takes.
func TestPlanCacheHitAllocs(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32)
	q := `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`
	norm := xquery.NormalizeQueryText(q)
	if _, p, _, err := s.cachedPlan(norm, q); err != nil || len(p.stamps) != 4 {
		t.Fatalf("prime: err=%v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, hit, err := s.cachedPlan(norm, q); err != nil || !hit {
			t.Fatalf("not a plan-cache hit: err=%v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("plan-cache hit allocates %.1f times, want 0", allocs)
	}
}

func TestPlanCacheNormalizedKey(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	if _, err := s.Query(`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`); err != nil {
		t.Fatal(err)
	}
	// Different layout and quoting, same normal form.
	r, err := s.Query("for  $i in collection('items')/Item\n where $i/Section = 'CD'  return $i/Code")
	if err != nil {
		t.Fatal(err)
	}
	if !r.PlanCached {
		t.Fatal("reformatted spelling missed the plan cache")
	}
}

func TestPlanCacheInvalidationOnWrite(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32)
	q := `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`

	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r.PlanCached {
		t.Fatal("stable generations did not keep the plan cached")
	}

	// A write to a fragment the plan consulted bumps its generation.
	invBefore := obs.CoordPlanCacheInvalidations.Value()
	err = s.Node("node0").StoreDocument("pitems::FS0", xmltree.MustParseString("extra",
		`<Item id="2"><Code>PX</Code><Section>S0</Section></Item>`))
	if err != nil {
		t.Fatal(err)
	}
	r, err = s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.PlanCached {
		t.Fatal("plan survived a generation bump")
	}
	if obs.CoordPlanCacheInvalidations.Value() == invBefore {
		t.Fatal("invalidation not counted")
	}
	if len(r.Items) != 5 {
		t.Fatalf("items after write = %d, want 5", len(r.Items))
	}
}

func TestPlanCacheInvalidationOnRegister(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}

	// Registering any collection moves the catalog version; every cached
	// plan predates the new catalog and is replanned.
	other := xmltree.NewCollection("other")
	other.Add(xmltree.MustParseString("o1", `<X><Y>1</Y></X>`))
	if err := s.Publish(other, nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.PlanCached {
		t.Fatal("plan survived a catalog registration")
	}
}

// The plan cache's LRU: past its capacity the least recently used plan
// falls out and the eviction counts.
func TestPlanCacheLRUEviction(t *testing.T) {
	c := lru.New[string, int](2, obs.CoordPlanCacheEvictions)
	evBefore := obs.CoordPlanCacheEvictions.Value()
	c.Put("q0", 0)
	c.Put("q1", 1)
	if _, ok := c.Get("q0"); !ok { // q0 is now the most recent; q1 the victim
		t.Fatal("q0 missing")
	}
	c.Put("q2", 2)
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	if got := obs.CoordPlanCacheEvictions.Value() - evBefore; got != 1 {
		t.Fatalf("evictions counted = %d, want 1", got)
	}
	if _, ok := c.Get("q1"); ok {
		t.Fatal("least recently used entry survived")
	}
	for _, k := range []string{"q0", "q2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted instead of the LRU entry", k)
		}
	}
	// Replacing a key keeps one entry and evicts nothing.
	c.Put("q2", 22)
	if v, _ := c.Get("q2"); v != 22 || c.Len() != 2 || obs.CoordPlanCacheEvictions.Value()-evBefore != 1 {
		t.Fatalf("replace: v=%d len=%d", v, c.Len())
	}
	// clear drops everything without counting evictions.
	c.Clear()
	if c.Len() != 0 || obs.CoordPlanCacheEvictions.Value()-evBefore != 1 {
		t.Fatalf("clear: len=%d", c.Len())
	}
}

// TestPlanCacheRandomizedReadWriteDifferential interleaves randomized
// node-direct fragment writes with the query mix and requires every answer
// the plan cache serves to equal a freshly planned one. Here fragments are
// pruned only by their fragmentation predicates, which do not depend on
// the data.
func TestPlanCacheRandomizedReadWriteDifferential(t *testing.T) {
	sections := map[string]string{"Fcd": "CD", "Fdvd": "DVD", "Frest": "Book"}
	fx := differentialFixture{
		nodes:      3,
		collection: "items",
		publish:    func(t *testing.T, s *System) { publishHorizontal(t, s, 24) },
		queries: func(rng *rand.Rand) string {
			return []string{
				`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
				`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
				`collection("items")/Item/Code`,
				`for $i in collection("items")/Item where $i/Section = "DVD" return $i`,
			}[rng.Intn(4)]
		},
		write: func(rng *rand.Rand, frag string, op int) string {
			return fmt.Sprintf(`<Item id="%d"><Code>W%04d</Code><Description>a good write</Description><Section>%s</Section></Item>`,
				1000+op, op, sections[frag])
		},
	}
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%t", concurrent), func(t *testing.T) {
			planCacheDifferential(t, concurrent, fx)
		})
	}
}

// TestPlanCacheStatisticsSkippingDifferential is the differential over
// the quartile fixture, where statistics skip the fragments holding no
// low ids: the writes put low-id documents into every fragment, skipped
// ones included, so a cached plan that still skips a fragment a write
// made relevant is caught.
func TestPlanCacheStatisticsSkippingDifferential(t *testing.T) {
	fx := differentialFixture{
		nodes:      4,
		collection: "pitems",
		publish:    func(t *testing.T, s *System) { publishQuartile(t, s, 32) },
		queries: func(rng *rand.Rand) string {
			op := []string{"<", "="}[rng.Intn(2)]
			return fmt.Sprintf(`for $i in collection("pitems")/Item where $i/@id %s %d return $i/Code`, op, 1+rng.Intn(4))
		},
		write: func(rng *rand.Rand, frag string, op int) string {
			return fmt.Sprintf(`<Item id="%d"><Code>W%04d</Code><Section>S%s</Section></Item>`,
				rng.Intn(4), op, frag[len("FS"):])
		},
	}
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%t", concurrent), func(t *testing.T) {
			planCacheDifferential(t, concurrent, fx)
		})
	}
}

// differentialFixture is one collection the plan-cache differential runs
// over: how to publish it, how to draw a query, and the document a write
// stores into a fragment.
type differentialFixture struct {
	nodes      int
	collection string
	publish    func(t *testing.T, s *System)
	queries    func(rng *rand.Rand) string
	write      func(rng *rand.Rand, frag string, op int) string
}

// planCacheDifferential runs the fixture's queries between writes stored
// straight into the fragments' nodes, behind the coordinator's back. The
// system under test answers through Query and its plan cache; the
// reference, a second coordinator over the same node engines, plans every
// query afresh through QueryExpr. Every answer must be the reference's,
// whether the sub-queries run one at a time or concurrently.
func planCacheDifferential(t *testing.T, concurrent bool, fx differentialFixture) {
	s := newTestSystem(t, fx.nodes)
	s.SetConcurrent(concurrent)
	fx.publish(t, s)
	ref := NewSystem(cluster.GigabitEthernet)
	for _, name := range s.Nodes() {
		ref.AddNode(s.Node(name))
	}
	meta := s.Catalog().Lookup(fx.collection)
	err := ref.Catalog().Register(&CollectionMeta{
		Name: fx.collection, Scheme: meta.Scheme, Placement: meta.Placement, Mode: meta.Mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	var frags []string
	for _, f := range meta.Scheme.Fragments {
		frags = append(frags, f.Name)
	}

	rng := rand.New(rand.NewSource(42))
	hits0 := obs.CoordPlanCacheHits.Value()
	for op := 0; op < 120; op++ {
		if rng.Intn(4) == 0 { // ~25% writes
			frag := frags[rng.Intn(len(frags))]
			doc := xmltree.MustParseString(fmt.Sprintf("w%04d", op), fx.write(rng, frag, op))
			if err := s.Node(meta.Placement[frag]).StoreDocument(meta.NodeCollection(frag), doc); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			continue
		}
		q := fx.queries(rng)
		got, err := s.Query(q)
		if err != nil {
			t.Fatalf("op %d plan-cached system: %v", op, err)
		}
		e, err := xquery.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.QueryExpr(e)
		if err != nil {
			t.Fatalf("op %d reference: %v", op, err)
		}
		if fmt.Sprint(itemStrings(got.Items)) != fmt.Sprint(itemStrings(want.Items)) {
			t.Fatalf("op %d: stale plan served (plan cached=%t, skipped %v)\nquery: %s\ngot:  %v\nwant: %v",
				op, got.PlanCached, got.SkippedFragments, q, itemStrings(got.Items), itemStrings(want.Items))
		}
	}
	if obs.CoordPlanCacheHits.Value() == hits0 {
		t.Fatal("the plan cache never served a hit — the differential proved nothing")
	}
}

func TestExplainPlannerEstimates(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32)
	q := `for $i in collection("pitems")/Item where $i/@id < 4 return $i/Code`

	p, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cached {
		t.Fatal("first explain reported a cached plan")
	}
	if len(p.Skipped) != 3 {
		t.Fatalf("explain skipped = %v", p.Skipped)
	}
	if len(p.Steps) != 1 {
		t.Fatalf("explain steps = %+v", p.Steps)
	}
	st := p.Steps[0]
	if st.EstDocs < 0 || st.EstCost < 0 {
		t.Fatalf("no estimates on a statistics-planned step: %+v", st)
	}
	// FS0 holds 8 docs; @id < 4 selects half. The linear model lands near
	// 4 — accept any sane sub-fragment estimate, reject "no idea".
	if st.EstDocs > 8 {
		t.Fatalf("estimate exceeds fragment size: %+v", st)
	}

	// Explain warmed the cache: both Explain and Query hit it now.
	p, err = s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cached {
		t.Fatal("second explain missed the cache")
	}
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r.PlanCached {
		t.Fatal("query after explain missed the cache")
	}
}

func TestExplainIndexOnlyAnnotation(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	p, err := s.Explain(`count(collection("items")/Item)`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range p.Steps {
		if st.IndexOnly {
			found = true
		}
	}
	if !found {
		t.Fatalf("no index-only step on a pure count: %+v", p.Steps)
	}
}

// The IndexOnly marker comes from the program the node compiles: an
// HQ7-shaped count (a root binding with one equality term) is marked on
// its step, HQ8's contains term is not, and both answer as counted.
func TestExplainMarksDecidedCountsIndexOnly(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	for _, tc := range []struct {
		query     string
		indexOnly bool
	}{
		{`count(for $i in collection("items")/Item where $i/Section = "CD" return $i)`, true},
		{`count(for $i in collection("items")/Item where contains($i/Description, "good") return $i)`, false},
	} {
		p, err := s.Explain(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range p.Steps {
			if st.IndexOnly != tc.indexOnly {
				t.Errorf("%s: step %s IndexOnly %v, want %v", tc.query, st.Fragment, st.IndexOnly, tc.indexOnly)
			}
		}
		res, err := s.Query(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		items, err := s.Query(tc.query[len("count(") : len(tc.query)-1])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != 1 || xquery.ItemString(res.Items[0]) != fmt.Sprint(len(items.Items)) {
			t.Errorf("%s = %v, want %d", tc.query, res.Items, len(items.Items))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
