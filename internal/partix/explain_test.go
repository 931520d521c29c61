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

// Explain shows what each reconstruction fetch ships: VQ4 reads the
// prolog's genre and the body's section titles, so both fetches carry that
// projection; VQ8 returns whole articles, so every fetch is raw.
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
	keeps := map[string]string{}
	for _, st := range plan.Steps {
		keeps[st.Fragment] = st.Keep
	}
	const want = "{body{section{title*}},prolog{genre*}}"
	if plan.Strategy != StrategyReconstruct || len(keeps) != 2 || keeps["F2papers"] != want || keeps["F1papers"] != want {
		t.Fatalf("VQ4: strategy %s, fetch keeps %v, want %s on the prolog and body fetches", plan.Strategy, keeps, want)
	}
	plan, err = s.Explain(workload.ByID(queries, "VQ8").Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("VQ8: steps = %+v", plan.Steps)
	}
	for _, st := range plan.Steps {
		if st.Keep != "" {
			t.Fatalf("VQ8 fetch %s ships %s, want the stored documents whole", st.Fragment, st.Keep)
		}
	}
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
