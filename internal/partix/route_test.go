package partix

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/fragmentation"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xbench"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Coverage for the one execution route: every plan is a list of steps
// (sub-queries or fetches) that cluster.Execute runs, composed in one
// place by concatenation, an aggregate or decider fold, or
// join-and-evaluate.

// TestNonDecomposableShapesJoinEveryFragment: a horizontal query that
// does not decompose into per-fragment answers is joined and evaluated
// over every fragment — no predicate pruning, no statistics skipping —
// and returns exactly the centralized interpreter's answer, in order,
// under both in-flight policies. Concatenating or folding per-fragment
// answers, or skipping fragments, gets every row wrong.
func TestNonDecomposableShapesJoinEveryFragment(t *testing.T) {
	queries := []string{
		`count(collection("pitems")/Item) + 1`,
		`let $a := collection("pitems")/Item return count($a)`,
		`for $i in collection("pitems")/Item where $i/@id = 3 return count(collection("pitems")/Item)`,
		`sum(collection("pitems")/Item/@id) div 2`,
		`some $i in collection("pitems")/Item satisfies $i/@id = 5`,
		`<r>{for $i in collection("pitems")/Item where $i/@id < 20 return $i/Code}</r>`,
		`for $i in collection("pitems")/Item order by $i/Code descending return $i/Code`,
	}
	central := quartileDocs(32)
	for _, concurrent := range []bool{false, true} {
		s := newTestSystem(t, 4)
		publishQuartile(t, s, 32)
		s.SetConcurrent(concurrent)
		for _, q := range queries {
			want, err := xquery.Eval(xquery.MustParse(q), memSource{central.Name: central})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("%s (concurrent=%v): %v", q, concurrent, err)
			}
			got, exp := itemsAsStrings(res.Items), itemsAsStrings(want)
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Errorf("%s (concurrent=%v):\ngot  %.300v\nwant %.300v", q, concurrent, got, exp)
				continue
			}
			if res.Strategy != StrategyReconstruct || len(res.Sub) != 4 || len(res.SkippedFragments) != 0 {
				t.Errorf("%s (concurrent=%v): strategy %s, %d steps, skipped %v; want a join over all 4 fragments",
					q, concurrent, res.Strategy, len(res.Sub), res.SkippedFragments)
			}
		}
	}
}

// TestHybridJoinKeepsEveryItemFragment: pruning the Figure-4 item
// fragments by their σ predicates is sound only for a union over items.
// A query that reads whole stores, or one that does not decompose, is
// joined over every item fragment, or it loses the items the pruned
// fragments hold. Over FragMode1 fragments, which cannot be joined back,
// it is refused rather than answered wrong.
func TestHybridJoinKeepsEveryItemFragment(t *testing.T) {
	queries := []string{
		`for $s in collection("store")/Store where $s/Items/Item/Section = "CD" return $s/Items/Item/Name`,
		`count(for $s in collection("store")/Store where $s/Items/Item/Section = "CD" return $s/Items/Item)`,
		`for $i in collection("store")/Store/Items/Item where $i/Section = "CD" return count(collection("store")/Store/Items/Item)`,
	}
	central := toxgene.GenerateStore(toxgene.StoreConfig{Items: 40, Seed: 5})
	for _, mode := range []fragmentation.MaterializeMode{fragmentation.FragModeSD, fragmentation.FragModeMD} {
		scheme := workload.HybridScheme("store")
		s := newTestSystem(t, len(scheme.Fragments))
		data := toxgene.GenerateStore(toxgene.StoreConfig{Items: 40, Seed: 5})
		if err := s.Publish(data, scheme, placeOnePerNode(scheme), PublishOptions{Mode: mode}); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, err := s.Query(q)
			if mode == fragmentation.FragModeMD {
				if err == nil || !strings.Contains(err.Error(), "cannot be joined back") {
					t.Errorf("%s over FragMode1: err = %v, want a refusal", q, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want, err := xquery.Eval(xquery.MustParse(q), memSource{central.Name: central})
			if err != nil {
				t.Fatal(err)
			}
			if got, exp := itemsAsStrings(res.Items), itemsAsStrings(want); fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Errorf("%s: %d items over %v, centralized %d", q, len(got), res.Fragments, len(exp))
			}
		}
	}
}

// TestDecomposableShapes pins the decomposability rule itself, with the
// fold each decomposable shape composes by.
func TestDecomposableShapes(t *testing.T) {
	cases := []struct {
		q    string
		fold string
		ok   bool
	}{
		{`collection("c")/Item/Code`, "", true},
		{`collection("c")`, "", true},
		{`for $i in collection("c")/Item where $i/@id < 3 return $i/Code`, "", true},
		{`for $a in collection("c")/a, $k in $a/k return $k`, "", true},
		{`for $i in collection("c")/Item let $c := $i/Code return $c`, "", true},
		{`count(for $i in collection("c")/Item where $i/S = "x" return $i)`, "count", true},
		{`sum(collection("c")/Item/@id)`, "sum", true},
		{`avg(collection("c")/Item/@id)`, "avg", true},
		{`exists(collection("c")/Item[S = "x"])`, "exists", true},
		{`empty(collection("c")/Item)`, "empty", true},
		{`count(collection("c")/Item) + 1`, "", false},
		{`let $a := collection("c")/Item return count($a)`, "", false},
		{`for $i in collection("c")/Item order by $i/Code return $i`, "", false},
		{`for $i in collection("c")/Item return count(collection("c")/Item)`, "", false},
		{`for $i in collection("c")/Item, $j in collection("c")/Item return $j`, "", false},
		{`some $i in collection("c")/Item satisfies $i/@id = 5`, "", false},
		{`<r>{collection("c")/Item}</r>`, "", false},
		{`count(count(collection("c")/Item))`, "", false},
		{`string-join(collection("c")/Item/Code, ",")`, "", false},
	}
	for _, c := range cases {
		fold, ok := decomposable(xquery.MustParse(c.q))
		if fold != c.fold || ok != c.ok {
			t.Errorf("%s: decomposable = (%q, %v), want (%q, %v)", c.q, fold, ok, c.fold, c.ok)
		}
	}
}

// TestWorkloadStrategiesUnchanged: every internal/workload query is
// decomposable, so the decomposability rule moves none of them off the
// route it took before the rule existed. HQ2 (an equality on Code) is
// routed to the one fragment whose membership filter holds its code.
func TestWorkloadStrategiesUnchanged(t *testing.T) {
	hscheme, err := workload.HorizontalScheme("items", 4)
	if err != nil {
		t.Fatal(err)
	}
	deployments := []struct {
		name    string
		data    *xmltree.Collection
		scheme  *fragmentation.Scheme
		mode    fragmentation.MaterializeMode
		queries []workload.Query
		want    string // strategy per query, in order
	}{
		{"horizontal", toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 40, Seed: 5}), hscheme,
			fragmentation.FragModeSD, workload.Horizontal("items"),
			"routed routed routed union union routed routed aggregate"},
		{"vertical", xbench.Generate(xbench.Config{Docs: 12, Seed: 5, Sections: 2, Paragraphs: 2}),
			xbench.VerticalScheme("articles"), fragmentation.FragModeSD, workload.Vertical("articles"),
			"routed routed routed reconstruct routed routed reconstruct reconstruct reconstruct routed"},
		{"hybrid/FragMode2", toxgene.GenerateStore(toxgene.StoreConfig{Items: 40, Seed: 5}),
			workload.HybridScheme("store"), fragmentation.FragModeSD, workload.Hybrid("store"),
			"routed union routed routed union routed union union routed routed aggregate"},
		{"hybrid/FragMode1", toxgene.GenerateStore(toxgene.StoreConfig{Items: 40, Seed: 5}),
			workload.HybridScheme("store"), fragmentation.FragModeMD, workload.Hybrid("store"),
			"routed union routed routed union routed union union routed routed aggregate"},
	}
	for _, d := range deployments {
		s := newTestSystem(t, len(d.scheme.Fragments))
		if err := s.Publish(d.data, d.scheme, placeOnePerNode(d.scheme), PublishOptions{Mode: d.mode}); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, q := range d.queries {
			if _, ok := decomposable(xquery.MustParse(q.Text)); !ok {
				t.Errorf("%s/%s is not decomposable", d.name, q.ID)
			}
			plan, err := s.Explain(q.Text)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.name, q.ID, err)
			}
			got = append(got, string(plan.Strategy))
		}
		if strings.Join(got, " ") != d.want {
			t.Errorf("%s strategies:\ngot  %s\nwant %s", d.name, strings.Join(got, " "), d.want)
		}
	}
}

// TestExplainStepOrderMatchesExecution: a multi-collection plan's steps
// come in one order, fixed at planning: every Explain, replanned from
// scratch, prints it, and execution runs its steps in it.
func TestExplainStepOrderMatchesExecution(t *testing.T) {
	s := newTestSystem(t, 4)
	publishQuartile(t, s, 32)
	sections := xmltree.NewCollection("sections",
		xmltree.MustParseString("s0", `<SectionInfo><Name>S0</Name><Floor>1</Floor></SectionInfo>`))
	if err := s.Publish(sections, nil, map[string]string{"": "node1"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	q := `for $i in collection("pitems")/Item, $s in collection("sections")/SectionInfo
	      where $i/Section = $s/Name return <loc>{$i/Code, $s/Floor}</loc>`
	order := func(frags, nodes []string) string {
		var out []string
		for i := range frags {
			out = append(out, frags[i]+"@"+nodes[i])
		}
		return strings.Join(out, " ")
	}
	var first string
	for i := 0; i < 20; i++ {
		s.InvalidatePlans()
		plan, err := s.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		var frags, nodes []string
		for _, st := range plan.Steps {
			frags, nodes = append(frags, st.Fragment), append(nodes, st.Node)
		}
		got := order(frags, nodes)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("explain %d: step order %q, first explain %q", i, got, first)
		}
	}
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct || len(res.Items) != 8 {
		t.Fatalf("strategy %s, %d items; want reconstruct, 8", res.Strategy, len(res.Items))
	}
	var frags, nodes []string
	for _, st := range res.Sub {
		frags, nodes = append(frags, st.Fragment), append(nodes, st.Node)
	}
	if got := order(frags, nodes); got != first {
		t.Fatalf("executed step order %q, explained %q", got, first)
	}
}

// fetchGate records the peak number of Fetch calls in progress across
// every node sharing it. A Fetch waits, up to a generous timeout, until
// want calls have been in progress at once, so fetches that may overlap
// are seen overlapping however the goroutines schedule.
type fetchGate struct {
	mu           sync.Mutex
	active, peak int
	want         int
	once         sync.Once
	full         chan struct{} // closed when want fetches first overlap
}

func (g *fetchGate) enter() {
	g.mu.Lock()
	g.active++
	g.peak = max(g.peak, g.active)
	if g.active == g.want {
		g.once.Do(func() { close(g.full) })
	}
	g.mu.Unlock()
	select {
	case <-g.full:
	case <-time.After(5 * time.Second):
	}
}

func (g *fetchGate) leave() {
	g.mu.Lock()
	g.active--
	g.mu.Unlock()
}

type gatedNode struct {
	cluster.Driver
	gate *fetchGate
}

func (n *gatedNode) Fetch(c string, spec cluster.FetchSpec) (*xmltree.Collection, error) {
	n.gate.enter()
	defer n.gate.leave()
	return n.Driver.Fetch(c, spec)
}

// wholeArticles reads every fragment of the XBench vertical scheme and
// has no where clause, so its join fetches all three in one round.
const wholeArticles = `for $a in collection("articles")/article return $a`

// TestFetchStepsHonourInflightLimit: reconstruction fetches run under the
// same in-flight limit as sub-queries — all three fragments of the XBench
// vertical scheme at once in concurrent mode, one at a time in the
// paper's sequential mode.
func TestFetchStepsHonourInflightLimit(t *testing.T) {
	for _, tc := range []struct {
		concurrent bool
		want       int
	}{{true, 3}, {false, 1}} {
		s := newTestSystem(t, 3)
		gate := &fetchGate{want: tc.want, full: make(chan struct{})}
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("node%d", i)
			s.AddNode(&gatedNode{Driver: s.Node(name), gate: gate})
		}
		scheme := xbench.VerticalScheme("articles")
		col := xbench.Generate(xbench.Config{Docs: 12, Seed: 4, Sections: 2, Paragraphs: 2})
		if err := s.Publish(col, scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		s.SetConcurrent(tc.concurrent)
		res, err := s.Query(wholeArticles)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyReconstruct || len(res.Sub) != 3 {
			t.Fatalf("strategy %s over %d steps, want reconstruct over 3", res.Strategy, len(res.Sub))
		}
		if gate.peak != tc.want {
			t.Errorf("concurrent=%v: peak of %d fetches in flight, want %d", tc.concurrent, gate.peak, tc.want)
		}
	}
}

// TestJoinRouteAccounting: a fetch is accounted like a sub-query — its
// result bytes are its documents' XML size, its transmission is that
// payload plus one message latency (a fetch ships no query text), it
// yields no first answer item, and a failover reports the replica that
// served it.
func TestJoinRouteAccounting(t *testing.T) {
	s := newTestSystem(t, 4)
	s.cost = cluster.CostModel{BytesPerSecond: 125e6, MessageLatency: time.Millisecond}
	failer := &failingNode{Driver: s.Node("node0")}
	s.AddNode(failer)
	scheme := xbench.VerticalScheme("articles")
	col := xbench.Generate(xbench.Config{Docs: 12, Seed: 4, Sections: 2, Paragraphs: 2})
	placement := placeOnePerNode(scheme)
	err := s.Publish(col, scheme, placement,
		PublishOptions{Replicas: map[string][]string{scheme.Fragments[0].Name: {"node3"}}})
	if err != nil {
		t.Fatal(err)
	}
	meta := s.Catalog().Lookup("articles")
	for _, down := range []bool{false, true} {
		failer.down = down
		res, err := s.Query(wholeArticles)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyReconstruct || len(res.Sub) != 3 || len(res.Items) == 0 {
			t.Fatalf("strategy %s, %d steps, %d items", res.Strategy, len(res.Sub), len(res.Items))
		}
		var transmission time.Duration
		for _, st := range res.Sub {
			fetched, err := s.Node(st.Node).Fetch(meta.NodeCollection(st.Fragment), cluster.FetchSpec{})
			if err != nil {
				t.Fatal(err)
			}
			bytes := 0
			for _, d := range fetched.Docs {
				bytes += xmltree.SerializedSize(d)
			}
			if st.ResultBytes != bytes || st.Items != fetched.Len() {
				t.Errorf("%s: %d bytes, %d docs; fetched documents are %d bytes, %d docs",
					st.Fragment, st.ResultBytes, st.Items, bytes, fetched.Len())
			}
			transmission += s.cost.Transmission(st.ResultBytes) + s.cost.MessageLatency
		}
		if res.TransmissionTime != transmission {
			t.Errorf("transmission %v, want %v", res.TransmissionTime, transmission)
		}
		if res.FirstItemLatency != 0 {
			t.Errorf("first-item latency %v on a join route, want 0", res.FirstItemLatency)
		}
		nodes := map[string]string{}
		for _, st := range res.Sub {
			nodes[st.Fragment] = st.Node
		}
		wantPrimary := placement[scheme.Fragments[0].Name]
		if down {
			wantPrimary = "node3"
		}
		if got := nodes[scheme.Fragments[0].Name]; got != wantPrimary {
			t.Errorf("down=%v: %s served by %q, want %q", down, scheme.Fragments[0].Name, got, wantPrimary)
		}
	}
}
