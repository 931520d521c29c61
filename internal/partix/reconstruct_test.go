package partix

import (
	"fmt"
	"sync"
	"testing"

	"partix/internal/fragmentation"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xbench"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Coverage for the reconstruction route: each fetch cut down at the node
// to what the query reads, the join done in place on the fetched trees,
// and the answer composed by the compiled program.

// placeOnePerNode puts fragment i of the scheme on node i.
func placeOnePerNode(scheme *fragmentation.Scheme) map[string]string {
	placement := map[string]string{}
	for i, f := range scheme.Fragments {
		placement[f.Name] = fmt.Sprintf("node%d", i)
	}
	return placement
}

// TestProjectedReconstructionMatchesCentralized: every workload query the
// planner answers by reconstruction on the XBench vertical scheme and the
// Figure-4 hybrid scheme — plus hybrid queries that join the store side
// with the item fragments, since the hybrid workload itself routes or
// unions — returns exactly the interpreter's answer over the unfragmented
// collection, item by item and in order, over in-process and TCP nodes.
func TestProjectedReconstructionMatchesCentralized(t *testing.T) {
	hybridJoins := []workload.Query{
		{ID: "store-join", Text: `for $s in collection("store")/Store where exists($s/Sections/Section) return $s/Items/Item/Name`},
		{ID: "store-count", Text: `count(for $s in collection("store")/Store where $s/Employees/Employee = "employee-01" return $s/Items/Item)`},
	}
	cases := []struct {
		name    string
		data    func() *xmltree.Collection
		scheme  func() *fragmentation.Scheme
		queries []workload.Query
		want    int // reconstruction queries expected
	}{
		{"vertical",
			func() *xmltree.Collection {
				return xbench.Generate(xbench.Config{Docs: 18, Seed: 3, Sections: 3, Paragraphs: 3})
			},
			func() *fragmentation.Scheme { return xbench.VerticalScheme("articles") },
			workload.Vertical("articles"), 4},
		{"hybrid",
			func() *xmltree.Collection { return toxgene.GenerateStore(toxgene.StoreConfig{Items: 40, Seed: 3}) },
			func() *fragmentation.Scheme { return workload.HybridScheme("store") },
			append(workload.Hybrid("store"), hybridJoins...), len(hybridJoins)},
	}
	nodeKinds := []struct {
		name string
		sys  func(t *testing.T, n int) *System
	}{
		{"local", newTestSystem},
		{"tcp", func(t *testing.T, n int) *System { s, _ := newWireSystem(t, n); return s }},
	}
	for _, tc := range cases {
		central := tc.data()
		for _, nk := range nodeKinds {
			t.Run(tc.name+"/"+nk.name, func(t *testing.T) {
				scheme := tc.scheme()
				s := nk.sys(t, len(scheme.Fragments))
				if err := s.Publish(tc.data(), scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
					t.Fatal(err)
				}
				reconstructed, projected := 0, 0
				for _, q := range tc.queries {
					plan, err := s.Explain(q.Text)
					if err != nil {
						t.Fatalf("%s: %v", q.ID, err)
					}
					if plan.Strategy != StrategyReconstruct {
						continue
					}
					reconstructed++
					for _, st := range plan.Steps {
						if st.Keep != "" {
							projected++
						}
					}
					res, err := s.Query(q.Text)
					if err != nil {
						t.Fatalf("%s: %v", q.ID, err)
					}
					want, err := xquery.Eval(xquery.MustParse(q.Text), memSource{central.Name: central})
					if err != nil {
						t.Fatal(err)
					}
					got, exp := itemsAsStrings(res.Items), itemsAsStrings(want)
					if len(got) != len(exp) {
						t.Fatalf("%s: %d items, centralized %d", q.ID, len(got), len(exp))
					}
					for i := range exp {
						if got[i] != exp[i] {
							t.Fatalf("%s: item %d differs:\nreconstructed: %.200s\ncentralized:   %.200s", q.ID, i, got[i], exp[i])
						}
					}
				}
				if reconstructed != tc.want || projected == 0 {
					t.Fatalf("%d reconstruction queries (want %d), %d projected fetches (want some)",
						reconstructed, tc.want, projected)
				}
			})
		}
	}
}

// TestConcurrentReconstructionsShareCachedPlan: a cached reconstruction
// plan hands one compiled program and one set of fetch projections to
// every execution; concurrent executions (run under -race in verify.sh)
// must each get the sequential answer.
func TestConcurrentReconstructionsShareCachedPlan(t *testing.T) {
	s := newTestSystem(t, 3)
	scheme := xbench.VerticalScheme("articles")
	col := xbench.Generate(xbench.Config{Docs: 12, Seed: 2, Sections: 3, Paragraphs: 2})
	if err := s.Publish(col, scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, id := range []string{"VQ4", "VQ7", "VQ8", "VQ9"} {
		q := workload.ByID(workload.Vertical("articles"), id).Text
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = fmt.Sprint(itemsAsStrings(res.Items))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q, w := range want {
				res, err := s.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if !res.PlanCached || fmt.Sprint(itemsAsStrings(res.Items)) != w {
					errs <- fmt.Errorf("%s: cached plan %v, answer differs from the sequential one", q, res.PlanCached)
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
}

// keepSections cuts every article's body down to its first n sections.
func keepSections(col *xmltree.Collection, n int) {
	for _, d := range col.Docs {
		body := d.Root.Child("body")
		var kept []*xmltree.Node
		sections := 0
		for _, c := range body.Children {
			if c.Name == "section" {
				if sections == n {
					continue
				}
				sections++
			}
			kept = append(kept, c)
		}
		body.Children = kept
	}
}

// TestReconstructAllocsIndependentOfDocumentSize is the per-fetched-
// document cost gate: a reconstruction query's allocations must not grow
// with the number of nodes in each fetched document — a decode is a
// constant handful of allocations — but at most with the answer: one
// allocation per extra result item (VQ4 returns every section title), plus
// a slack of one per document. Both run as semi-joins: VQ8 fetches the
// matching articles' three fragments whole, VQ4 the matching articles'
// prolog and body projected. Sizing every fetched document by serializing
// it and cloning every tree before the join cost, for 6 articles cut to 3
// and to 30 body sections, 1,495 → 4,267 allocations per VQ8 and
// 1,049 → 3,871 per VQ4; without them it was 262 → 262 and 196 → 205,
// and as semi-joins it is 203 → 203 and 186 → 195.
func TestReconstructAllocsIndependentOfDocumentSize(t *testing.T) {
	const docs = 6
	vq4 := workload.ByID(workload.Vertical("articles"), "VQ4").Text
	vq8 := workload.ByID(workload.Vertical("articles"), "VQ8").Text
	allocs, items := map[string][]float64{}, map[string][]int{}
	for _, sections := range []int{3, 30} {
		s := newTestSystem(t, 3)
		scheme := xbench.VerticalScheme("articles")
		// Both sizes cut from the same articles, so the same ones match.
		col := xbench.Generate(xbench.Config{Docs: docs, Seed: 2, Sections: 30, Paragraphs: 2})
		keepSections(col, sections)
		if err := s.Publish(col, scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{vq8, vq4} {
			res, err := s.Query(q) // plans, and caches the plan
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != StrategyReconstruct || len(res.Items) == 0 {
				t.Fatalf("%s: strategy %s, %d items", q, res.Strategy, len(res.Items))
			}
			items[q] = append(items[q], len(res.Items))
			allocs[q] = append(allocs[q], testing.AllocsPerRun(5, func() {
				if _, err := s.Query(q); err != nil {
					t.Fatal(err)
				}
			}))
		}
	}
	for name, q := range map[string]string{"VQ8": vq8, "VQ4": vq4} {
		a, n := allocs[q], items[q]
		t.Logf("%s: %.0f allocations for %d items at 3 sections, %.0f for %d at 30", name, a[0], n[0], a[1], n[1])
		if a[1]-a[0] > float64(n[1]-n[0]+docs) {
			t.Errorf("%s: allocations grow from %.0f to %.0f with 10x the nodes per document", name, a[0], a[1])
		}
	}
}
