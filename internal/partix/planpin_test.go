package partix

import (
	"fmt"
	"strings"
	"testing"

	"partix/internal/fragmentation"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xbench"
	"partix/internal/xmltree"
)

// planPin is one query of the paper's Figure 7(c)/(d) workloads and the
// plan the query service pins for it.
type planPin struct {
	id, query, plan string
}

// renderPlan is what a plan pin compares: the strategy, then one line per
// step with its fragment, round, fetch projection and semi-join filter.
func renderPlan(p *Plan) string {
	var b strings.Builder
	b.WriteString(string(p.Strategy))
	for _, st := range p.Steps {
		fmt.Fprintf(&b, "\n%s r%d", st.Fragment, st.Round)
		if st.Keep != "" {
			b.WriteString(" keep=" + st.Keep)
		}
		if st.Where != "" {
			b.WriteString(" where=" + st.Where)
		}
	}
	return b.String()
}

// TestPlansOfFigure7Workloads pins the plan of every XBenchVer (VQ1–VQ10)
// and StoreHyb (YQ1–YQ11) query on its paper design. The texts are
// literals, and they are also the texts the benchmark's vertical_join
// (vq4, vq7, vq8, vq9) and hybrid_ship (yq1, yq3, yq5, yq8) workloads
// run, so a change to how the planner reads a query shows here before it
// moves those workloads.
func TestPlansOfFigure7Workloads(t *testing.T) {
	cases := []struct {
		name    string
		coll    *xmltree.Collection
		scheme  *fragmentation.Scheme
		queries []workload.Query
		pins    []planPin
	}{
		{
			name:    "vertical",
			coll:    xbench.Generate(xbench.Config{Docs: 12, Seed: 1}),
			scheme:  xbench.VerticalScheme("articles"),
			queries: workload.Vertical("articles"),
			pins:    verticalPins,
		},
		{
			name:    "hybrid",
			coll:    toxgene.GenerateStore(toxgene.StoreConfig{Items: 64, Seed: 1}),
			scheme:  workload.HybridScheme("store"),
			queries: workload.Hybrid("store"),
			pins:    hybridPins,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSystem(t, len(tc.scheme.Fragments))
			if err := s.Publish(tc.coll, tc.scheme, placeOnePerNode(tc.scheme), PublishOptions{}); err != nil {
				t.Fatal(err)
			}
			if len(tc.pins) != len(tc.queries) {
				t.Fatalf("%d pins for %d workload queries", len(tc.pins), len(tc.queries))
			}
			for _, pin := range tc.pins {
				if q := workload.ByID(tc.queries, pin.id); q == nil || q.Text != pin.query {
					t.Errorf("%s: the workload's text is no longer the pinned literal", pin.id)
				}
				p, err := s.Explain(pin.query)
				if err != nil {
					t.Fatalf("%s: %v", pin.id, err)
				}
				if got := renderPlan(p); got != pin.plan {
					t.Errorf("%s: plan\n%s\nwant\n%s", pin.id, got, pin.plan)
				}
			}
		})
	}
}

var verticalPins = []planPin{
	{"VQ1", `for $a in collection("articles")/article where $a/prolog/genre = "databases" return $a/prolog/title`, `routed
F1papers r1`},
	{"VQ2", `for $a in collection("articles")/article where $a/prolog/date > "2004-01-01" return $a/prolog/authors/author`, `routed
F1papers r1`},
	{"VQ3", `count(for $a in collection("articles")/article, $k in $a/prolog/keywords/keyword return $k)`, `routed
F1papers r1`},
	{"VQ4", `for $a in collection("articles")/article where $a/prolog/genre = "theory" return $a/body/section/title`, `reconstruct
F1papers r1 keep={body{section{title*}}} where=for $a in collection("articles::F1papers")/article where ($a/prolog/genre = "theory") return $a
F2papers r2 keep={body{section{title*}}}`},
	{"VQ5", `for $a in collection("articles")/article where contains($a/body, "excellent") return $a/@id`, `routed
F2papers r1`},
	{"VQ6", `for $a in collection("articles")/article where $a/epilog/country = "Brazil" return $a/@id`, `routed
F3papers r1`},
	{"VQ7", `for $a in collection("articles")/article where contains($a/body, "defective") return $a/prolog/title`, `reconstruct
F2papers r1 keep={prolog{title*}} where=for $a in collection("articles::F2papers")/article where contains($a/body, "defective") return $a
F1papers r2 keep={prolog{title*}}`},
	{"VQ8", `for $a in collection("articles")/article where $a/prolog/genre = "security" return $a`, `reconstruct
F1papers r1 where=for $a in collection("articles::F1papers")/article where ($a/prolog/genre = "security") return $a
F3papers r2
F2papers r2`},
	{"VQ9", `for $a in collection("articles")/article where $a/epilog/country = "Japan" return $a/prolog/title`, `reconstruct
F3papers r1 keep={prolog{title*}} where=for $a in collection("articles::F3papers")/article where ($a/epilog/country = "Japan") return $a
F1papers r2 keep={prolog{title*}}`},
	{"VQ10", `sum(for $a in collection("articles")/article return count($a/epilog/references/a_id))`, `routed
F3papers r1`},
}

var hybridPins = []planPin{
	{"YQ1", `for $i in collection("store")/Store/Items/Item where $i/Section = "CD" return $i`, `routed
F2items r1`},
	{"YQ2", `for $i in collection("store")/Store/Items/Item where $i/Code = "I000011" return $i`, `union
F2items r1
F3items r1
F4items r1
F5items r1`},
	{"YQ3", `for $i in collection("store")/Store/Items/Item where $i/Section = "DVD" return $i`, `routed
F3items r1`},
	{"YQ4", `for $i in collection("store")/Store/Items/Item where $i/Section = "Book" return $i/Code`, `routed
F4items r1`},
	{"YQ5", `for $i in collection("store")/Store/Items/Item where contains($i/Description, "good") return $i`, `union
F2items r1
F3items r1
F4items r1
F5items r1`},
	{"YQ6", `for $i in collection("store")/Store/Items/Item where $i/Section = "Game" and contains($i/Description, "excellent") return $i`, `routed
F5items r1`},
	{"YQ7", `for $i in collection("store")/Store/Items/Item where exists($i/Characteristics) return $i/Name`, `union
F2items r1
F3items r1
F4items r1
F5items r1`},
	{"YQ8", `for $i in collection("store")/Store/Items/Item where contains($i/Description, "defective") return $i`, `union
F2items r1
F3items r1
F4items r1
F5items r1`},
	{"YQ9", `for $s in collection("store")/Store/Sections/Section return $s/Name`, `routed
F1store r1`},
	{"YQ10", `for $e in collection("store")/Store/Employees/Employee return $e`, `routed
F1store r1`},
	{"YQ11", `count(for $i in collection("store")/Store/Items/Item return $i)`, `aggregate
F2items r1
F3items r1
F4items r1
F5items r1`},
}

// A for-binding over the document node reads no content: a query that
// then reads only the epilog is routed to F3papers (the XBench schema
// makes epilog mandatory, so every document is there), not answered by
// reconstructing whole documents from all three fragments.
func TestDocumentBindingIsAnExistenceRead(t *testing.T) {
	scheme := xbench.VerticalScheme("articles")
	s := newTestSystem(t, len(scheme.Fragments))
	if err := s.Publish(xbench.Generate(xbench.Config{Docs: 12, Seed: 1}), scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, pin := range []planPin{
		{"epilog", `for $d in collection("articles") return $d/article/epilog/country`, "routed\nF3papers r1"},
		{"whole", `for $d in collection("articles") return $d`, "reconstruct\nF1papers r1\nF3papers r1\nF2papers r1"},
	} {
		p, err := s.Explain(pin.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderPlan(p); got != pin.plan {
			t.Errorf("%s: plan\n%s\nwant\n%s", pin.id, got, pin.plan)
		}
	}
}
