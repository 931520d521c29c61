package partix

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/fragmentation"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xbench"
	"partix/internal/xmlschema"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Coverage for semi-join reconstruction: which where conjunct each
// fragment decides, answers identical to the centralized interpreter's,
// the bytes a round-2 fetch ships, the accounting of the two rounds, and
// failover inside round 2.

// countrySplitScheme is the XBench vertical scheme with the optional
// epilog/country split off into a fragment of its own: an article without
// a country has no part in F4papers, so F4papers does not hold every
// document.
func countrySplitScheme() *fragmentation.Scheme {
	return &fragmentation.Scheme{
		Collection: "articles",
		Schema:     xmlschema.XBenchArticle(),
		RootType:   "article",
		Fragments: []*fragmentation.Fragment{
			fragmentation.MustVertical("F1papers", "/article/prolog"),
			fragmentation.MustVertical("F2papers", "/article/body"),
			fragmentation.MustVertical("F3papers", "/article/epilog", "/article/epilog/country"),
			fragmentation.MustVertical("F4papers", "/article/epilog/country"),
		},
	}
}

// semiJoinSchemes are the designs the semi-join tests run on: the XBench
// vertical scheme, the country split, and the Figure-4 hybrid design
// materialized in FragMode2, whose store-side queries join F1store with
// the item fragments.
var semiJoinSchemes = map[string]struct {
	scheme func() *fragmentation.Scheme
	data   func() *xmltree.Collection
}{
	"vertical": {
		func() *fragmentation.Scheme { return xbench.VerticalScheme("articles") },
		func() *xmltree.Collection {
			return xbench.Generate(xbench.Config{Docs: 16, Seed: 5, Sections: 2, Paragraphs: 2})
		},
	},
	"country": {
		countrySplitScheme,
		func() *xmltree.Collection {
			return xbench.Generate(xbench.Config{Docs: 16, Seed: 5, Sections: 2, Paragraphs: 2})
		},
	},
	"hybrid": {
		func() *fragmentation.Scheme { return workload.HybridScheme("store") },
		func() *xmltree.Collection { return toxgene.GenerateStore(toxgene.StoreConfig{Items: 30, Seed: 5}) },
	},
}

// publishSemiJoin publishes the named design on a fresh system of nodes
// built by sys, one fragment per node.
func publishSemiJoin(t *testing.T, name string, sys func(*testing.T, int) *System) *System {
	t.Helper()
	d := semiJoinSchemes[name]
	scheme := d.scheme()
	s := sys(t, len(scheme.Fragments))
	if err := s.Publish(d.data(), scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// pushedConjuncts maps each round-1 fetch of a plan to the where
// conjuncts its filter decides, formatted one by one.
func pushedConjuncts(t *testing.T, plan *Plan) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, st := range plan.Steps {
		if st.Where == "" {
			continue
		}
		fl, ok := xquery.MustParse(st.Where).(*xquery.FLWOR)
		if !ok || fl.Where == nil {
			t.Fatalf("%s: filter %q is not a for-where", st.Fragment, st.Where)
		}
		xquery.Conjuncts(fl.Where, func(c xquery.Expr) {
			out[st.Fragment] = append(out[st.Fragment], xquery.Format(c))
		})
	}
	return out
}

// TestSemiJoinPushability pins which where conjunct goes to which
// fragment: a comparison, contains or exists goes to the fragment owning
// its paths; not(…) only to a fragment holding every document; an or
// across two fragments, a // path, a spine attribute, a second variable
// and a value read above a prune path stay at the coordinator. A plan
// with no pushed conjunct fetches in one round.
func TestSemiJoinPushability(t *testing.T) {
	const arts = `for $a in collection("articles")/article `
	const store = `for $s in collection("store")/Store `
	cases := []struct {
		name, design, query string
		pushed              map[string][]string // fragment → conjuncts; empty: one round
	}{
		{"VQ4 genre", "vertical", workload.ByID(workload.Vertical("articles"), "VQ4").Text,
			map[string][]string{"F1papers": {`$a/prolog/genre = "theory"`}}},
		{"VQ7 body text", "vertical", workload.ByID(workload.Vertical("articles"), "VQ7").Text,
			map[string][]string{"F2papers": {`contains($a/body, "defective")`}}},
		{"VQ9 optional country", "vertical", workload.ByID(workload.Vertical("articles"), "VQ9").Text,
			map[string][]string{"F3papers": {`$a/epilog/country = "Japan"`}}},
		{"not on a fragment holding every document", "vertical",
			arts + `where not(contains($a/body, "excellent")) return $a/prolog/title`,
			map[string][]string{"F2papers": {`not(contains($a/body, "excellent"))`}}},
		{"not on a fragment missing documents", "country",
			arts + `where not($a/epilog/country = "Japan") return $a/prolog/title`, nil},
		{"comparison on a fragment missing documents", "country",
			arts + `where $a/epilog/country = "Japan" return $a/prolog/title`,
			map[string][]string{"F4papers": {`$a/epilog/country = "Japan"`}}},
		{"two fragments, a third fetched by name", "country",
			arts + `where not(contains($a/body, "excellent")) and exists($a/epilog/references/a_id) return $a/epilog/country`,
			map[string][]string{
				"F2papers": {`not(contains($a/body, "excellent"))`},
				"F3papers": {`exists($a/epilog/references/a_id)`},
			}},
		{"value read above a prune path", "country",
			arts + `where contains($a/epilog, "Japan") return $a/prolog/title`, nil},
		{"optional country and genre", "vertical",
			arts + `where exists($a/epilog/country) and $a/prolog/genre = "theory" return $a/body/section/title`,
			map[string][]string{
				"F1papers": {`$a/prolog/genre = "theory"`},
				"F3papers": {`exists($a/epilog/country)`},
			}},
		{"or across two fragments", "vertical",
			arts + `where $a/prolog/genre = "theory" or $a/epilog/country = "Japan" return $a/body/section/title`, nil},
		{"descendant path", "vertical",
			arts + `where $a//title = "x" and $a/epilog/country = "Japan" return $a/prolog/title`,
			map[string][]string{"F3papers": {`$a/epilog/country = "Japan"`}}},
		{"spine attribute", "vertical",
			arts + `where $a/@id = "a00001" and $a/prolog/genre = "theory" return $a/body/section/title`,
			map[string][]string{"F1papers": {`$a/prolog/genre = "theory"`}}},
		{"second variable", "vertical",
			arts + `, $s in $a/body/section where $s/title = "x" and $a/epilog/country = "Japan" return $a/prolog/title`,
			map[string][]string{"F3papers": {`$a/epilog/country = "Japan"`}}},
		{"count over the stream", "vertical",
			`count(` + arts + `where $a/prolog/genre = "theory" return $a/body/section)`,
			map[string][]string{"F1papers": {`$a/prolog/genre = "theory"`}}},
		{"exists over the stream", "vertical",
			`exists(` + arts + `where contains($a/body, "defective") return $a/prolog/title)`,
			map[string][]string{"F2papers": {`contains($a/body, "defective")`}}},
		{"matches nothing", "vertical",
			arts + `where $a/prolog/genre = "no-such-genre" return $a/body/section/title`,
			map[string][]string{"F1papers": {`$a/prolog/genre = "no-such-genre"`}}},
		{"store side", "hybrid",
			store + `where exists($s/Sections/Section) return $s/Items/Item/Name`,
			map[string][]string{"F1store": {`exists($s/Sections/Section)`}}},
		{"hybrid item fragments decide nothing", "hybrid",
			store + `where $s/Items/Item/Section = "CD" and $s/Employees/Employee = "employee-01" return $s/Items/Item/Name`,
			map[string][]string{"F1store": {`$s/Employees/Employee = "employee-01"`}}},
	}
	systems := map[string]*System{}
	for _, tc := range cases {
		s := systems[tc.design]
		if s == nil {
			s = publishSemiJoin(t, tc.design, newTestSystem)
			systems[tc.design] = s
		}
		plan, err := s.Explain(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if plan.Strategy != StrategyReconstruct {
			t.Fatalf("%s: strategy %s, want a join", tc.name, plan.Strategy)
		}
		want := map[string][]string{}
		for frag, cs := range tc.pushed {
			for _, c := range cs {
				want[frag] = append(want[frag], xquery.Format(xquery.MustParse(c)))
			}
		}
		got := pushedConjuncts(t, plan)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: pushed %v, want %v", tc.name, got, want)
		}
		for _, st := range plan.Steps {
			wantRound := 1
			if len(want) > 0 && want[st.Fragment] == nil {
				wantRound = 2
			}
			if st.Round != wantRound {
				t.Errorf("%s: fetch of %s in round %d, want %d", tc.name, st.Fragment, st.Round, wantRound)
			}
		}
	}
}

// semiJoinQueries draws n random join queries over a design: a
// conjunction of one to three terms across its fragments — terms a
// fragment decides and terms it must not — a return reading one or more
// fragments, and now and then a count or exists around the stream.
func semiJoinQueries(design string, r *rand.Rand, n int) []string {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	var head string
	var terms, returns []func() string
	if design == "hybrid" {
		head = `for $s in collection("store")/Store`
		terms = []func() string{
			func() string { return `exists($s/Sections/Section)` },
			func() string { return `$s/Employees/Employee = "` + pick("employee-01", "employee-02", "nobody") + `"` },
			func() string { return `not($s/Employees/Employee = "` + pick("employee-01", "nobody") + `")` },
			func() string { return `$s/Items/Item/Section = "` + pick("CD", "Toy", "none") + `"` },
			func() string { return `count($s/Items/Item) > ` + pick("3", "100") },
			func() string { return `$s/Items/Item/Section = "CD" or $s/Employees/Employee = "nobody"` },
		}
		for _, ret := range []string{`$s/Items/Item/Name`, `$s/Employees/Employee`, `$s/Items/Item[Section = "CD"]/Code`, `$s`} {
			returns = append(returns, func() string { return ret })
		}
	} else {
		head = `for $a in collection("articles")/article`
		word := func() string { return pick("excellent", "defective", "good", "quality", "zzz") }
		terms = []func() string{
			func() string {
				return `$a/prolog/genre = "` + pick(append(slices.Clone(xbench.Genres), "no-such-genre")...) + `"`
			},
			func() string { return `$a/prolog/date > "` + pick("2002-06-01", "2004-01-01") + `"` },
			func() string { return `contains($a/body, "` + word() + `")` },
			func() string { return `not(contains($a/body, "` + word() + `"))` },
			func() string { return `$a/epilog/country = "` + pick(xbench.Countries...) + `"` },
			func() string { return `not($a/epilog/country = "` + pick(xbench.Countries...) + `")` },
			func() string { return `exists($a/epilog/country)` },
			func() string { return `contains($a/epilog, "` + pick(xbench.Countries...) + `")` },
			func() string { return `empty($a/epilog/acknowledgements)` },
			func() string { return `$a/prolog/genre = "theory" or $a/epilog/country = "Japan"` },
			func() string { return `$a//genre = "` + pick(xbench.Genres...) + `"` },
			func() string { return `exists($a//title)` },
			func() string { return `$a/@id != "a0000` + pick("1", "2", "3") + `"` },
			func() string { return `count($a/epilog/references/a_id) > ` + pick("4", "8") },
			func() string {
				return `(some $k in $a/prolog/keywords/keyword satisfies contains($k, "` + word() + `"))`
			},
		}
		for _, ret := range []string{`$a/prolog/title`, `$a/body/section/title`, `$a`, `$a/epilog/country`, `$a/@id`} {
			returns = append(returns, func() string { return ret })
		}
	}
	out := make([]string, n)
	for i := range out {
		var where []string
		for k := 1 + r.Intn(3); k > 0; k-- {
			where = append(where, terms[r.Intn(len(terms))]())
		}
		q := head + " where " + strings.Join(where, " and ") + " return " + returns[r.Intn(len(returns))]()
		switch r.Intn(5) {
		case 0:
			q = "count(" + q + ")"
		case 1:
			q = "exists(" + q + ")"
		}
		out[i] = q
	}
	return out
}

// TestSemiJoinMatchesCentralized: randomized join queries over the
// vertical, country-split and hybrid designs return exactly the
// interpreter's answer over the unfragmented collection, item by item and
// in order, over in-process and TCP nodes, sequential and concurrent. The
// draw must produce semi-joins, and semi-joins whose round 2 is empty.
func TestSemiJoinMatchesCentralized(t *testing.T) {
	nodeKinds := []struct {
		name string
		sys  func(t *testing.T, n int) *System
	}{
		{"local", newTestSystem},
		{"tcp", func(t *testing.T, n int) *System { s, _ := newWireSystem(t, n); return s }},
	}
	for _, design := range []string{"vertical", "country", "hybrid"} {
		central := semiJoinSchemes[design].data()
		queries := semiJoinQueries(design, rand.New(rand.NewSource(int64(len(design)))), 40)
		for _, nk := range nodeKinds {
			for _, concurrent := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/concurrent=%v", design, nk.name, concurrent), func(t *testing.T) {
					s := publishSemiJoin(t, design, nk.sys)
					s.SetConcurrent(concurrent)
					semi, empty := 0, 0
					for _, q := range queries {
						plan, err := s.Explain(q)
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						res, err := s.Query(q)
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						if len(pushedConjuncts(t, plan)) > 0 {
							semi++
							if len(res.Sub) < len(plan.Steps) {
								empty++
							}
						}
						want, err := xquery.Eval(xquery.MustParse(q), memSource{central.Name: central})
						if err != nil {
							t.Fatal(err)
						}
						if got, exp := itemsAsStrings(res.Items), itemsAsStrings(want); !slices.Equal(got, exp) {
							t.Fatalf("%s (strategy %s): %d items, centralized %d:\n%.300v\n%.300v",
								q, res.Strategy, len(got), len(exp), got, exp)
						}
					}
					if semi == 0 || empty == 0 {
						t.Fatalf("%d semi-joins, %d with an empty round 2: the draw misses a case", semi, empty)
					}
				})
			}
		}
	}
}

// TestSemiJoinBytesIndependentOfCollectionSize: a VQ8-shaped query with
// exactly k matches fetches the body of those k articles only, so the
// bytes the body fetch ships are the same over n and 10n articles — they
// grow with the answer, not with the collection.
func TestSemiJoinBytesIndependentOfCollectionSize(t *testing.T) {
	const n, k = 8, 3
	vq8 := workload.ByID(workload.Vertical("articles"), "VQ8").Text
	var body []int
	for _, docs := range []int{n, 10 * n} {
		col := xbench.Generate(xbench.Config{Docs: 10 * n, Seed: 7, Sections: 3, Paragraphs: 2})
		col.Docs = col.Docs[:docs]
		for i, d := range col.Docs {
			genre := "databases"
			if i < k {
				genre = "security"
			}
			d.Root.Child("prolog").Child("genre").Children[0].Value = genre
		}
		s := newTestSystem(t, 3)
		scheme := xbench.VerticalScheme("articles")
		if err := s.Publish(col, scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(vq8)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != k {
			t.Fatalf("%d articles: %d answers, want %d", docs, len(res.Items), k)
		}
		for _, st := range res.Sub {
			if st.Fragment == "F2papers" {
				body = append(body, st.ResultBytes)
			}
		}
	}
	if len(body) != 2 || body[0] == 0 || body[0] != body[1] {
		t.Fatalf("body fetch shipped %v bytes over %d and %d articles, want the same non-zero size", body, n, 10*n)
	}
}

// TestSemiJoinAccounting: a semi-join's rounds run one after the other,
// so its parallel time is the slowest round-1 site plus the slowest
// round-2 site, its transmission is the sum over both rounds, Sub lists
// the fetches in plan order, and no fetch yields an answer item.
func TestSemiJoinAccounting(t *testing.T) {
	s := newTestSystem(t, 3)
	s.cost = cluster.CostModel{BytesPerSecond: 125e6, MessageLatency: time.Millisecond}
	scheme := xbench.VerticalScheme("articles")
	col := xbench.Generate(xbench.Config{Docs: 24, Seed: 4, Sections: 2, Paragraphs: 2})
	if err := s.Publish(col, scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	vq8 := workload.ByID(workload.Vertical("articles"), "VQ8").Text
	plan, err := s.Explain(vq8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(vq8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct || len(res.Items) == 0 || len(res.Sub) != len(plan.Steps) {
		t.Fatalf("strategy %s, %d items, %d of %d steps run", res.Strategy, len(res.Items), len(res.Sub), len(plan.Steps))
	}
	var slowest [3]time.Duration
	var transmission time.Duration
	for i, st := range res.Sub {
		if st.Fragment != plan.Steps[i].Fragment {
			t.Fatalf("Sub[%d] is %s, plan step %d is %s", i, st.Fragment, i, plan.Steps[i].Fragment)
		}
		round := plan.Steps[i].Round
		slowest[round] = max(slowest[round], st.Elapsed)
		transmission += s.cost.Transmission(st.ResultBytes) + s.cost.MessageLatency
	}
	if want := slowest[1] + slowest[2]; res.ParallelTime != want {
		t.Errorf("parallel time %v, want %v + %v", res.ParallelTime, slowest[1], slowest[2])
	}
	if res.TransmissionTime != transmission {
		t.Errorf("transmission %v, want %v", res.TransmissionTime, transmission)
	}
	if res.FirstItemLatency != 0 {
		t.Errorf("first-item latency %v on a semi-join, want 0", res.FirstItemLatency)
	}
}

// fetchFailer fails the fetches a semi-join's round 2 sends — those
// restricted to names — once armed.
type fetchFailer struct {
	cluster.Driver
	down bool
}

func (f *fetchFailer) Fetch(c string, spec cluster.FetchSpec) (*xmltree.Collection, error) {
	if f.down && spec.Names != nil {
		return nil, fmt.Errorf("node %s is down", f.Name())
	}
	return f.Driver.Fetch(c, spec)
}

// TestSemiJoinRoundTwoFailsOverToReplica: a round-2 fetch whose primary
// fails is served by the fragment's replica, with the same names and the
// same answer.
func TestSemiJoinRoundTwoFailsOverToReplica(t *testing.T) {
	for _, kind := range []string{"local", "tcp"} {
		var s *System
		if kind == "local" {
			s = newTestSystem(t, 4)
		} else {
			s, _ = newWireSystem(t, 4)
		}
		scheme := xbench.VerticalScheme("articles")
		body := &fetchFailer{Driver: s.Node("node1")}
		s.AddNode(body)
		col := xbench.Generate(xbench.Config{Docs: 12, Seed: 4, Sections: 2, Paragraphs: 2})
		err := s.Publish(col, scheme, placeOnePerNode(scheme),
			PublishOptions{Replicas: map[string][]string{"F2papers": {"node3"}}})
		if err != nil {
			t.Fatal(err)
		}
		vq8 := workload.ByID(workload.Vertical("articles"), "VQ8").Text
		var answers []string
		for _, down := range []bool{false, true} {
			body.down = down
			res, err := s.Query(vq8)
			if err != nil {
				t.Fatalf("%s down=%v: %v", kind, down, err)
			}
			served := map[string]string{}
			for _, st := range res.Sub {
				served[st.Fragment] = st.Node
			}
			want := "node1"
			if down {
				want = "node3"
			}
			if served["F2papers"] != want {
				t.Errorf("%s down=%v: body served by %q, want %q", kind, down, served["F2papers"], want)
			}
			answers = append(answers, fmt.Sprint(itemsAsStrings(res.Items)))
		}
		if answers[0] != answers[1] || answers[0] == "[]" {
			t.Errorf("%s: failover changed the answer", kind)
		}
	}
}
