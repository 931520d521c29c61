package design

import (
	"fmt"
	"strings"
	"testing"

	"partix/internal/algebra"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xbench"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func itemsWorkload() []WorkloadQuery {
	var out []WorkloadQuery
	for _, q := range workload.Horizontal("items") {
		w := 1
		if q.Class == workload.ClassTextSearch {
			w = 3
		}
		out = append(out, WorkloadQuery{Text: q.Text, Weight: w})
	}
	return out
}

func TestProposeHorizontalIsCorrect(t *testing.T) {
	c := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 120, Seed: 31})
	scheme, err := ProposeHorizontal(c, itemsWorkload(), HorizontalOptions{MaxFragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(scheme.Fragments) > 4 || len(scheme.Fragments) < 2 {
		t.Fatalf("fragments = %d", len(scheme.Fragments))
	}
	// The three Section 3.3 rules hold on the sample.
	if err := scheme.Check(c); err != nil {
		t.Fatal(err)
	}
}

func TestProposeHorizontalCompleteForUnseenDocs(t *testing.T) {
	c := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 60, Seed: 32})
	scheme, err := ProposeHorizontal(c, itemsWorkload(), HorizontalOptions{MaxFragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A document unlike anything in the sample (a section the workload
	// never mentions and odd text) must still land in exactly one
	// fragment, thanks to the catch-all min-term.
	odd := xmltree.MustParseString("odd",
		`<Item><Code>ZZ</Code><Name>n</Name><Description>unseen words entirely</Description><Section>Antiques</Section></Item>`)
	owners := 0
	for _, f := range scheme.Fragments {
		if algebra.Holds(f.Predicate, odd.Root) {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("unseen document owned by %d fragments, want 1", owners)
	}
}

func TestProposeHorizontalUsesWorkloadPredicates(t *testing.T) {
	c := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 100, Seed: 33})
	scheme, err := ProposeHorizontal(c, itemsWorkload(), HorizontalOptions{MaxFragments: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The workload selects on /Item/Section = "CD": some fragment's
	// predicate must mention it.
	found := false
	for _, f := range scheme.Fragments {
		if strings.Contains(xquery.FormatDefinition(f.Predicate), `/Item/Section = "CD"`) {
			found = true
		}
	}
	if !found {
		t.Fatal("workload predicate not used in the design")
	}
}

func TestProposeHorizontalErrors(t *testing.T) {
	empty := xmltree.NewCollection("items")
	if _, err := ProposeHorizontal(empty, itemsWorkload(), HorizontalOptions{}); err == nil {
		t.Fatal("empty collection accepted")
	}
	c := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 10, Seed: 34})
	noPreds := []WorkloadQuery{{Text: `for $i in collection("items")/Item return $i`}}
	if _, err := ProposeHorizontal(c, noPreds, HorizontalOptions{}); err == nil {
		t.Fatal("workload without predicates accepted")
	}
}

func articlesWorkload() []WorkloadQuery {
	var out []WorkloadQuery
	for _, q := range workload.Vertical("articles") {
		out = append(out, WorkloadQuery{Text: q.Text})
	}
	return out
}

func TestProposeVerticalIsCorrect(t *testing.T) {
	c := xbench.Generate(xbench.Config{Docs: 10, Seed: 35, Sections: 3, Paragraphs: 3})
	advice, err := ProposeVertical(c, articlesWorkload(), VerticalOptions{MaxFragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := advice.Scheme.Check(c); err != nil {
		t.Fatal(err)
	}
	if len(advice.Scheme.Fragments) < 2 {
		t.Fatalf("fragments = %d", len(advice.Scheme.Fragments))
	}
	// The anchor fragment owns /article with prunes.
	anchor := advice.Scheme.Fragments[0]
	if xquery.FormatDefinition(anchor.Path) != "/article" || len(anchor.Prune) == 0 {
		t.Fatalf("anchor = %s", anchor)
	}
	for _, f := range advice.Scheme.Fragments {
		if _, ok := advice.Groups[f.Name]; !ok {
			t.Fatalf("fragment %s has no colocation group", f.Name)
		}
	}
}

func TestProposeVerticalSeparatesBody(t *testing.T) {
	// A workload that uses prolog and epilog together but body alone
	// should not cluster body with the metadata parts.
	c := xbench.Generate(xbench.Config{Docs: 8, Seed: 36, Sections: 2, Paragraphs: 2})
	queries := []WorkloadQuery{
		{Text: `for $a in collection("articles")/article where $a/epilog/country = "Brazil" return $a/prolog/title`, Weight: 5},
		{Text: `for $a in collection("articles")/article where contains($a/body, "x") return $a/body/section/title`, Weight: 5},
	}
	advice, err := ProposeVertical(c, queries, VerticalOptions{MaxFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two clusters: {prolog, epilog} and {body}. Body must be alone in
	// its group.
	bodyGroup := -1
	for name, g := range advice.Groups {
		if strings.Contains(name, "body") {
			bodyGroup = g
		}
	}
	if bodyGroup == -1 {
		t.Fatalf("no body fragment in %v", advice.Groups)
	}
	for name, g := range advice.Groups {
		if g == bodyGroup && !strings.Contains(name, "body") && name != "F1anchor" {
			t.Fatalf("%s clustered with body: %v", name, advice.Groups)
		}
	}
	// prolog+epilog cluster is hotter (weight 5 uses both), so it should
	// be the anchor; body separate.
	if err := advice.Scheme.Check(c); err != nil {
		t.Fatal(err)
	}
}

func TestProposeVerticalExcludesRepeatableChildren(t *testing.T) {
	c := xmltree.NewCollection("c",
		xmltree.MustParseString("d1", `<root><rep>1</rep><rep>2</rep><single>x</single><other>y</other></root>`),
	)
	queries := []WorkloadQuery{
		{Text: `for $r in collection("c")/root return $r/single`},
		{Text: `for $r in collection("c")/root return $r/other`},
	}
	advice, err := ProposeVertical(c, queries, VerticalOptions{MaxFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range advice.Scheme.Fragments {
		if strings.Contains(xquery.FormatDefinition(f.Path), "rep") {
			t.Fatalf("repeatable child became a fragment path: %s", f)
		}
	}
	if err := advice.Scheme.Check(c); err != nil {
		t.Fatal(err)
	}
}

func TestProposeVerticalErrors(t *testing.T) {
	if _, err := ProposeVertical(xmltree.NewCollection("c"), nil, VerticalOptions{}); err == nil {
		t.Fatal("empty collection accepted")
	}
	hetero := xmltree.NewCollection("c",
		xmltree.MustParseString("a", "<a><x>1</x></a>"),
		xmltree.MustParseString("b", "<b><x>1</x></b>"),
	)
	if _, err := ProposeVertical(hetero, nil, VerticalOptions{}); err == nil {
		t.Fatal("heterogeneous collection accepted")
	}
	allRep := xmltree.NewCollection("c",
		xmltree.MustParseString("a", "<a><x>1</x><x>2</x></a>"),
	)
	if _, err := ProposeVertical(allRep, nil, VerticalOptions{}); err == nil {
		t.Fatal("all-repeatable collection accepted")
	}
}

func TestAllocateBalancesBytes(t *testing.T) {
	c := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 200, Seed: 37})
	scheme, err := workload.HorizontalScheme("items", 8)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []string{"n0", "n1", "n2"}
	placement, err := Allocate(scheme, c, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(placement) != 8 {
		t.Fatalf("placement = %v", placement)
	}
	perNode := map[string]int{}
	for _, n := range placement {
		perNode[n]++
	}
	if len(perNode) != 3 {
		t.Fatalf("not all nodes used: %v", perNode)
	}
}

func TestAllocateRespectsGroups(t *testing.T) {
	c := xbench.Generate(xbench.Config{Docs: 6, Seed: 38, Sections: 2, Paragraphs: 2})
	advice, err := ProposeVertical(c, articlesWorkload(), VerticalOptions{MaxFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	placement, err := Allocate(advice.Scheme, c, []string{"n0", "n1", "n2"}, advice.Groups)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := map[int]string{}
	for frag, node := range placement {
		g := advice.Groups[frag]
		if prev, ok := nodeOf[g]; ok && prev != node {
			t.Fatalf("group %d split across %s and %s", g, prev, node)
		}
		nodeOf[g] = node
	}
}

func TestAllocateErrors(t *testing.T) {
	c := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 10, Seed: 39})
	scheme, _ := workload.HorizontalScheme("items", 2)
	if _, err := Allocate(scheme, c, nil, nil); err == nil {
		t.Fatal("no nodes accepted")
	}
}

func TestEndToEndAdvisorDeployment(t *testing.T) {
	// The advisor's output must be directly publishable and the workload
	// must keep returning the same answers as a centralized deployment.
	c := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 80, Seed: 40})
	scheme, err := ProposeHorizontal(c, itemsWorkload(), HorizontalOptions{MaxFragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []string{"node0", "node1", "node2"}
	placement, err := Allocate(scheme, c, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range scheme.Fragments {
		if placement[f.Name] == "" {
			t.Fatalf("fragment %s unplaced", f.Name)
		}
	}
	// Sanity: fragment sizes sum to collection size.
	frags, err := scheme.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, fc := range frags {
		total += fc.Len()
	}
	if total != c.Len() {
		t.Fatalf("fragment docs = %d, want %d", total, c.Len())
	}
	fmt.Println() // keep fmt imported for debugging convenience
}
