package partix

import (
	"strings"
	"testing"

	"partix/internal/workload"
	"partix/internal/xbench"
)

func TestExplainRouted(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	plan, err := s.Explain(`for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != StrategyRouted {
		t.Fatalf("strategy = %s", plan.Strategy)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Fragment != "Fcd" || plan.Steps[0].Node != "node0" {
		t.Fatalf("steps = %+v", plan.Steps)
	}
	// The rewritten sub-query targets the fragment's node collection.
	if !strings.Contains(plan.Steps[0].Query, `collection("items::Fcd")`) {
		t.Fatalf("sub-query = %s", plan.Steps[0].Query)
	}
	if len(plan.Collections) != 1 || plan.Collections[0] != "items" {
		t.Fatalf("collections = %v", plan.Collections)
	}
}

func TestExplainUnionListsAllFragments(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	plan, err := s.Explain(`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != StrategyUnion || len(plan.Steps) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	for _, st := range plan.Steps {
		if st.Query == "" {
			t.Fatalf("union step lacks a sub-query: %+v", st)
		}
	}
}

func TestExplainAggregate(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	plan, err := s.Explain(`count(for $i in collection("items")/Item return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != StrategyAggregate {
		t.Fatalf("strategy = %s", plan.Strategy)
	}
}

func TestExplainReconstruct(t *testing.T) {
	s := newTestSystem(t, 3)
	publishVertical(t, s, 6)
	plan, err := s.Explain(`for $a in collection("articles")/article where $a/prolog/genre = "g1" return $a/body`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != StrategyReconstruct {
		t.Fatalf("strategy = %s", plan.Strategy)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %+v (want prolog+body fetches)", plan.Steps)
	}
	for _, st := range plan.Steps {
		if st.Query != "" {
			t.Fatalf("reconstruction fetch should have no sub-query: %+v", st)
		}
	}
}

// Explain shows what each reconstruction fetch ships. VQ4's genre test is
// decided on the prolog fragment, so the prolog fetch runs it as a filter
// in round 1 and the body fetch follows in round 2; both carry only what
// the rest of the query reads, the section titles. VQ8 returns whole
// articles, so every fetch is raw: the prolog filtered, the epilog and
// body by name.
func TestExplainReconstructShowsFetchProjection(t *testing.T) {
	s := newTestSystem(t, 3)
	scheme := xbench.VerticalScheme("articles")
	if err := s.Publish(xbench.Generate(xbench.Config{Docs: 6, Seed: 1, Sections: 2, Paragraphs: 2}),
		scheme, placeOnePerNode(scheme), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	queries := workload.Vertical("articles")
	plan, err := s.Explain(workload.ByID(queries, "VQ4").Text)
	if err != nil {
		t.Fatal(err)
	}
	const keep = "{body{section{title*}}}"
	want := []PlanStep{
		{Fragment: "F1papers", Keep: keep, Round: 1,
			Where: `for $a in collection("articles::F1papers")/article where ($a/prolog/genre = "theory") return $a`},
		{Fragment: "F2papers", Keep: keep, Round: 2},
	}
	if plan.Strategy != StrategyReconstruct || !sameFetches(plan.Steps, want) {
		t.Fatalf("VQ4: strategy %s, steps %+v, want %+v", plan.Strategy, plan.Steps, want)
	}
	plan, err = s.Explain(workload.ByID(queries, "VQ8").Text)
	if err != nil {
		t.Fatal(err)
	}
	want = []PlanStep{
		{Fragment: "F1papers", Round: 1,
			Where: `for $a in collection("articles::F1papers")/article where ($a/prolog/genre = "security") return $a`},
		{Fragment: "F3papers", Round: 2}, // smallest first
		{Fragment: "F2papers", Round: 2},
	}
	if !sameFetches(plan.Steps, want) {
		t.Fatalf("VQ8: steps %+v, want %+v", plan.Steps, want)
	}
}

// sameFetches compares the fetch steps of a plan with want on what a
// fetch ships: fragment, keep, filter and round, in order.
func sameFetches(got, want []PlanStep) bool {
	if len(got) != len(want) {
		return false
	}
	for i, st := range got {
		w := want[i]
		if st.Query != "" || st.Fragment != w.Fragment || st.Keep != w.Keep || st.Where != w.Where || st.Round != w.Round {
			return false
		}
	}
	return true
}

func TestExplainDoesNotExecute(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	// Explaining a query over a registered collection never touches node
	// data — even a query whose predicate matches nothing still plans.
	plan, err := s.Explain(`for $i in collection("items")/Item where $i/Section = "Nonexistent" return $i`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != StrategyUnion && plan.Strategy != StrategyRouted {
		t.Fatalf("strategy = %s", plan.Strategy)
	}
}

func TestExplainErrors(t *testing.T) {
	s := newTestSystem(t, 1)
	if _, err := s.Explain(`nonsense ~~~`); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := s.Explain(`for $x in collection("ghost")/a return $x`); err == nil {
		t.Fatal("unknown collection accepted")
	}
}

func TestExplainEmptyRoute(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	// Contradicts every fragment: Section can't equal two values at once.
	plan, err := s.Explain(`for $i in collection("items")/Item where $i/Section = "CD" and $i/Section = "DVD" return $i`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Fatalf("contradictory query plans steps: %+v", plan.Steps)
	}
}
