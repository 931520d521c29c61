package partix

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/fragmentation"
	"partix/internal/wire"
	"partix/internal/xmlschema"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// newTestSystem builds a system with n local nodes named node0..node{n-1}.
func newTestSystem(t *testing.T, n int) *System {
	t.Helper()
	s := NewSystem(cluster.GigabitEthernet)
	for i := 0; i < n; i++ {
		db, err := engine.Open(filepath.Join(t.TempDir(), fmt.Sprintf("n%d.db", i)), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		s.AddNode(wire.NewLocalNode(fmt.Sprintf("node%d", i), db))
	}
	return s
}

func itemsCollection(n int) *xmltree.Collection {
	sections := []string{"CD", "DVD", "Book", "Game"}
	c := xmltree.NewCollection("items")
	for i := 0; i < n; i++ {
		desc := "plain thing"
		if i%3 == 0 {
			desc = "a good thing"
		}
		c.Add(xmltree.MustParseString(fmt.Sprintf("i%03d", i), fmt.Sprintf(
			`<Item id="%d"><Code>I%03d</Code><Name>name%d</Name><Description>%s</Description><Section>%s</Section></Item>`,
			i, i, i, desc, sections[i%len(sections)])))
	}
	return c
}

func horizontalScheme() *fragmentation.Scheme {
	return &fragmentation.Scheme{
		Collection: "items",
		Fragments: []*fragmentation.Fragment{
			fragmentation.MustHorizontal("Fcd", `/Item/Section = "CD"`),
			fragmentation.MustHorizontal("Fdvd", `/Item/Section = "DVD"`),
			fragmentation.MustHorizontal("Frest", `/Item/Section != "CD" and /Item/Section != "DVD"`),
		},
	}
}

func publishHorizontal(t *testing.T, s *System, docs int) {
	t.Helper()
	err := s.Publish(itemsCollection(docs), horizontalScheme(), map[string]string{
		"Fcd": "node0", "Fdvd": "node1", "Frest": "node2",
	}, PublishOptions{CheckCorrectness: true})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublishAndCentralizedQuery(t *testing.T) {
	s := newTestSystem(t, 1)
	if err := s.Publish(itemsCollection(8), nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyCentralized {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if len(res.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(res.Items))
	}
	if res.ResponseTime() <= 0 {
		t.Fatal("no response time measured")
	}
}

func TestHorizontalRoutingMatchingPredicate(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	res, err := s.Query(`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyRouted {
		t.Fatalf("strategy = %s, want routed (predicate matches fragmentation)", res.Strategy)
	}
	if len(res.Sub) != 1 || res.Sub[0].Fragment != "Fcd" {
		t.Fatalf("sub-queries: %+v", res.Sub)
	}
	if len(res.Items) != 3 {
		t.Fatalf("items = %d, want 3 CDs", len(res.Items))
	}
}

func TestHorizontalBroadcastUnion(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	res, err := s.Query(`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyUnion {
		t.Fatalf("strategy = %s, want union", res.Strategy)
	}
	if len(res.Sub) != 3 {
		t.Fatalf("sub-queries = %d, want 3", len(res.Sub))
	}
	if len(res.Items) != 4 {
		t.Fatalf("items = %d, want 4 (i0,i3,i6,i9)", len(res.Items))
	}
}

func TestHorizontalAggregateComposition(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	res, err := s.Query(`count(for $i in collection("items")/Item where contains($i/Description, "good") return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyAggregate {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if len(res.Items) != 1 || xquery.ItemString(res.Items[0]) != "4" {
		t.Fatalf("count = %v", res.Items)
	}
}

// itemsWithCDBook is itemsCollection(n) plus a Book item named "CD": a
// document of Frest that a query reading "CD" through any element other
// than Section must still reach.
func itemsWithCDBook(n int) *xmltree.Collection {
	c := itemsCollection(n)
	c.Add(xmltree.MustParseString("book-cd",
		`<Item id="99"><Code>B001</Code><Name>CD</Name><Description>plain thing</Description><Section>Book</Section></Item>`))
	return c
}

func TestHorizontalResultsMatchCentralized(t *testing.T) {
	frag := newTestSystem(t, 3)
	err := frag.Publish(itemsWithCDBook(16), horizontalScheme(), map[string]string{
		"Fcd": "node0", "Fdvd": "node1", "Frest": "node2",
	}, PublishOptions{CheckCorrectness: true})
	if err != nil {
		t.Fatal(err)
	}
	central := newTestSystem(t, 1)
	if err := central.Publish(itemsWithCDBook(16), nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
		`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
		`count(for $i in collection("items")/Item return $i)`,
		`for $i in collection("items")/Item where $i/Section = "Game" and contains($i/Description, "plain") return $i/Name`,
		`for $i in collection("items")/Item where $i/Code = "I005" return <r>{$i/Section}</r>`,
		// Step predicates outside a binding path or a where conjunct are
		// no necessary condition: under not(), in a return clause, or
		// under a nested count(), documents failing them still answer.
		`for $i in collection("items") where not($i/Item[Section = "CD"]) return $i/Item/Code`,
		`for $i in collection("items") return <r>{$i/Item[Section = "CD"]/Code}</r>`,
		`for $d in collection("items") return <r>{count($d/Item[Section = "CD"])}</r>`,
		// A wildcard step matches Name too: the Book named "CD" answers.
		`for $i in collection("items")/Item where $i/* = "CD" return $i/Code`,
	}
	for _, q := range queries {
		a, err := frag.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, err := central.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		as, bs := itemsAsStrings(a.Items), itemsAsStrings(b.Items)
		if len(as) != len(bs) {
			t.Errorf("%s: %d vs %d items", q, len(as), len(bs))
			continue
		}
		// Union order may differ between fragment and centralized runs;
		// compare as multisets.
		counts := map[string]int{}
		for _, v := range as {
			counts[v]++
		}
		for _, v := range bs {
			counts[v]--
		}
		for k, c := range counts {
			if c != 0 {
				t.Errorf("%s: multiset mismatch at %q", q, k)
			}
		}
	}
}

func itemsAsStrings(items xquery.Seq) []string {
	out := make([]string, len(items))
	for i, it := range items {
		if n, ok := xquery.NodeOf(it); ok {
			out[i] = xmltree.NodeString(n)
		} else {
			out[i] = xquery.ItemString(it)
		}
	}
	return out
}

// --- vertical ---

func articlesCollection(n int) *xmltree.Collection {
	c := xmltree.NewCollection("articles")
	for i := 0; i < n; i++ {
		c.Add(xmltree.MustParseString(fmt.Sprintf("a%03d", i), fmt.Sprintf(
			`<article id="a%d"><prolog><title>Title %d</title><authors><author>au%d</author></authors><genre>g%d</genre><keywords/><date>2004</date></prolog><body><section><title>s</title><p>body text %d with words</p></section></body><epilog><references><a_id>r%d</a_id></references></epilog></article>`,
			i, i, i, i%3, i, i)))
	}
	return c
}

func verticalScheme() *fragmentation.Scheme {
	return &fragmentation.Scheme{
		Collection: "articles",
		Schema:     xmlschema.XBenchArticle(),
		RootType:   "article",
		Fragments: []*fragmentation.Fragment{
			fragmentation.MustVertical("Fprolog", "/article/prolog"),
			fragmentation.MustVertical("Fbody", "/article/body"),
			fragmentation.MustVertical("Fepilog", "/article/epilog"),
		},
	}
}

func publishVertical(t *testing.T, s *System, docs int) {
	t.Helper()
	err := s.Publish(articlesCollection(docs), verticalScheme(), map[string]string{
		"Fprolog": "node0", "Fbody": "node1", "Fepilog": "node2",
	}, PublishOptions{CheckCorrectness: true})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerticalSingleFragmentRouted(t *testing.T) {
	s := newTestSystem(t, 3)
	publishVertical(t, s, 10)
	res, err := s.Query(`for $a in collection("articles")/article where $a/prolog/genre = "g1" return $a/prolog/title`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyRouted {
		t.Fatalf("strategy = %s, want routed", res.Strategy)
	}
	if res.Sub[0].Fragment != "Fprolog" {
		t.Fatalf("routed to %s", res.Sub[0].Fragment)
	}
	if len(res.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(res.Items))
	}
}

func TestVerticalSpineAttributeAnswerableBySingleFragment(t *testing.T) {
	s := newTestSystem(t, 3)
	publishVertical(t, s, 6)
	res, err := s.Query(`for $a in collection("articles")/article where $a/@id = "a2" return $a/prolog/title`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyRouted {
		t.Fatalf("strategy = %s (spine attribute should not force a join)", res.Strategy)
	}
	if len(res.Items) != 1 {
		t.Fatalf("items = %d", len(res.Items))
	}
}

func TestVerticalMultiFragmentReconstruction(t *testing.T) {
	s := newTestSystem(t, 3)
	publishVertical(t, s, 8)
	res, err := s.Query(`for $a in collection("articles")/article
	  where contains($a/body/section/p, "body text 3")
	  return $a/prolog/title`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct {
		t.Fatalf("strategy = %s, want reconstruct (query spans body and prolog)", res.Strategy)
	}
	if len(res.Items) != 1 || xquery.ItemString(res.Items[0]) != "Title 3" {
		t.Fatalf("items = %v", itemsAsStrings(res.Items))
	}
	if res.ComposeTime <= 0 {
		t.Fatal("reconstruction should cost compose time")
	}
}

func TestVerticalWholeDocumentNeedsAllFragments(t *testing.T) {
	s := newTestSystem(t, 3)
	publishVertical(t, s, 4)
	res, err := s.Query(`for $a in collection("articles")/article where $a/@id = "a1" return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if len(res.Items) != 1 {
		t.Fatalf("items = %d", len(res.Items))
	}
	// The reconstructed article must have all three parts.
	root := res.Items[0].(*xmltree.Node)
	for _, part := range []string{"prolog", "body", "epilog"} {
		if root.Child(part) == nil {
			t.Fatalf("reconstructed article lacks %s", part)
		}
	}
}

// --- hybrid ---

func storeCollection(items int) *xmltree.Collection {
	sections := []string{"CD", "DVD", "Book"}
	var body string
	for i := 0; i < items; i++ {
		body += fmt.Sprintf(
			`<Item id="%d"><Code>I%03d</Code><Name>n%d</Name><Description>thing %d</Description><Section>%s</Section></Item>`,
			i+1, i, i, i, sections[i%3])
	}
	return xmltree.NewCollection("store", xmltree.MustParseString("store", `<Store>
	  <Sections><Section><Code>S1</Code><Name>CD</Name></Section></Sections>
	  <Items>`+body+`</Items>
	  <Employees><Employee>bob</Employee></Employees></Store>`))
}

func hybridScheme() *fragmentation.Scheme {
	return &fragmentation.Scheme{
		Collection: "store",
		SD:         true,
		Schema:     xmlschema.VirtualStore(),
		RootType:   "Store",
		Fragments: []*fragmentation.Fragment{
			fragmentation.MustHybrid("Fcd", "/Store/Items", nil, `/Item/Section = "CD"`),
			fragmentation.MustHybrid("Fdvd", "/Store/Items", nil, `/Item/Section = "DVD"`),
			fragmentation.MustHybrid("Frest", "/Store/Items", nil, `/Item/Section != "CD" and /Item/Section != "DVD"`),
			fragmentation.MustVertical("Fstore", "/Store", "/Store/Items"),
		},
	}
}

func publishHybrid(t *testing.T, s *System, items int, mode fragmentation.MaterializeMode) {
	t.Helper()
	err := s.Publish(storeCollection(items), hybridScheme(), map[string]string{
		"Fcd": "node0", "Fdvd": "node1", "Frest": "node2", "Fstore": "node3",
	}, PublishOptions{Mode: mode, CheckCorrectness: mode == fragmentation.FragModeSD})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridRoutedBySectionPredicate(t *testing.T) {
	for _, mode := range []fragmentation.MaterializeMode{fragmentation.FragModeSD, fragmentation.FragModeMD} {
		s := newTestSystem(t, 4)
		publishHybrid(t, s, 9, mode)
		res, err := s.Query(`for $i in collection("store")/Store/Items/Item where $i/Section = "CD" return $i/Code`)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Strategy != StrategyRouted {
			t.Fatalf("%s: strategy = %s", mode, res.Strategy)
		}
		if res.Sub[0].Fragment != "Fcd" {
			t.Fatalf("%s: routed to %s", mode, res.Sub[0].Fragment)
		}
		if len(res.Items) != 3 {
			t.Fatalf("%s: items = %d, want 3", mode, len(res.Items))
		}
	}
}

func TestHybridUnionAcrossItemFragments(t *testing.T) {
	for _, mode := range []fragmentation.MaterializeMode{fragmentation.FragModeSD, fragmentation.FragModeMD} {
		s := newTestSystem(t, 4)
		publishHybrid(t, s, 9, mode)
		res, err := s.Query(`for $i in collection("store")/Store/Items/Item where contains($i/Description, "thing") return $i/Code`)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Strategy != StrategyUnion {
			t.Fatalf("%s: strategy = %s", mode, res.Strategy)
		}
		if len(res.Items) != 9 {
			t.Fatalf("%s: items = %d", mode, len(res.Items))
		}
		// The store-minus-items fragment must not be queried.
		for _, sub := range res.Sub {
			if sub.Fragment == "Fstore" {
				t.Fatalf("%s: Fstore queried for an item query", mode)
			}
		}
	}
}

func TestHybridPruneSideRouted(t *testing.T) {
	s := newTestSystem(t, 4)
	publishHybrid(t, s, 9, fragmentation.FragModeSD)
	res, err := s.Query(`for $s in collection("store")/Store/Sections/Section return $s/Name`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyRouted || res.Sub[0].Fragment != "Fstore" {
		t.Fatalf("strategy = %s via %s", res.Strategy, res.Sub[0].Fragment)
	}
	if len(res.Items) != 1 {
		t.Fatalf("items = %d", len(res.Items))
	}
}

func TestHybridAggregate(t *testing.T) {
	s := newTestSystem(t, 4)
	publishHybrid(t, s, 12, fragmentation.FragModeSD)
	res, err := s.Query(`count(for $i in collection("store")/Store/Items/Item return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyAggregate {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if xquery.ItemString(res.Items[0]) != "12" {
		t.Fatalf("count = %v", res.Items)
	}
}

func TestHybridReconstructWholeStore(t *testing.T) {
	s := newTestSystem(t, 4)
	publishHybrid(t, s, 6, fragmentation.FragModeSD)
	res, err := s.Query(`for $s in collection("store")/Store return count($s/Items/Item)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if xquery.ItemString(res.Items[0]) != "6" {
		t.Fatalf("count = %v", res.Items)
	}
}

func TestFragModeMDCannotReconstruct(t *testing.T) {
	s := newTestSystem(t, 4)
	publishHybrid(t, s, 6, fragmentation.FragModeMD)
	_, err := s.Query(`for $s in collection("store")/Store return count($s/Items/Item)`)
	if err == nil {
		t.Fatal("FragMode1 reconstruction should fail")
	}
}

// --- misc ---

func TestCatalogValidation(t *testing.T) {
	s := newTestSystem(t, 1)
	if err := s.Publish(itemsCollection(2), nil, map[string]string{"": "ghost"}, PublishOptions{}); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := s.Catalog().Register(&CollectionMeta{}); err == nil {
		t.Fatal("nameless collection accepted")
	}
	if err := s.Catalog().Register(&CollectionMeta{Name: "x"}); err == nil {
		t.Fatal("placement-less collection accepted")
	}
	sch := horizontalScheme()
	if err := s.Catalog().Register(&CollectionMeta{Name: "items", Scheme: sch, Placement: map[string]string{"Fcd": "node0"}}); err == nil {
		t.Fatal("missing fragment placement accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestSystem(t, 1)
	if _, err := s.Query(`for $i in collection("ghost")/X return $i`); err == nil {
		t.Fatal("unknown collection accepted")
	}
	if _, err := s.Query(`1 + 1`); err == nil {
		t.Fatal("collection-less query accepted")
	}
	if _, err := s.Query(`for $i in collection("x")/a return`); err == nil {
		t.Fatal("syntax error accepted")
	}
}

func TestPublishRejectsIncorrectScheme(t *testing.T) {
	s := newTestSystem(t, 2)
	bad := &fragmentation.Scheme{
		Collection: "items",
		Fragments: []*fragmentation.Fragment{
			fragmentation.MustHorizontal("F1", `/Item/Section = "CD"`),
			fragmentation.MustHorizontal("F2", `/Item/Section = "DVD"`),
			// Book/Game items are uncovered → completeness violation.
		},
	}
	err := s.Publish(itemsCollection(8), bad, map[string]string{"F1": "node0", "F2": "node1"},
		PublishOptions{CheckCorrectness: true})
	if err == nil {
		t.Fatal("incomplete scheme published")
	}
}

func TestMultiCollectionCoordinatorJoin(t *testing.T) {
	s := newTestSystem(t, 2)
	if err := s.Publish(itemsCollection(4), nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	lookup := xmltree.NewCollection("sections",
		xmltree.MustParseString("s1", `<SectionInfo><Name>CD</Name><Floor>1</Floor></SectionInfo>`),
		xmltree.MustParseString("s2", `<SectionInfo><Name>DVD</Name><Floor>2</Floor></SectionInfo>`),
	)
	if err := s.Publish(lookup, nil, map[string]string{"": "node1"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`
	  for $i in collection("items")/Item, $s in collection("sections")/SectionInfo
	  where $i/Section = $s/Name
	  return <loc>{$i/Code, $s/Floor}</loc>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if len(res.Items) != 2 {
		t.Fatalf("join results = %d, want 2 (CD and DVD items)", len(res.Items))
	}
}

func TestFragmentStats(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 12)
	stats, err := s.FragmentStats("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats = %v", stats)
	}
	for frag, bytes := range stats {
		if bytes == 0 {
			t.Errorf("fragment %s has no bytes", frag)
		}
	}
	if _, err := s.FragmentStats("ghost"); err == nil {
		t.Fatal("unknown collection stats")
	}
}

func TestCostModelTransmission(t *testing.T) {
	if cluster.GigabitEthernet.Transmission(125_000_000) != time.Second {
		t.Fatal("gigabit model wrong")
	}
	if cluster.NoNetwork.Transmission(1<<30) != 0 {
		t.Fatal("NoNetwork should be free")
	}
}
