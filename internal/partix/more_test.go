package partix

import (
	"reflect"
	"strings"
	"testing"

	"partix/internal/fragmentation"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func TestSystemAccessors(t *testing.T) {
	s := newTestSystem(t, 3)
	if got := s.Nodes(); !reflect.DeepEqual(got, []string{"node0", "node1", "node2"}) {
		t.Fatalf("nodes = %v", got)
	}
	if s.CostModel().BytesPerSecond != 125e6 {
		t.Fatalf("cost model = %+v", s.CostModel())
	}
	publishHorizontal(t, s, 8)
	if got := s.Catalog().Collections(); !reflect.DeepEqual(got, []string{"items"}) {
		t.Fatalf("collections = %v", got)
	}
	meta := s.Catalog().Lookup("items")
	if meta.NodeCollection("") != "items" || meta.NodeCollection("F1") != "items::F1" {
		t.Fatal("NodeCollection wrong")
	}
}

func TestQueryContradictingAllFragmentsExecutes(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 8)
	// Section cannot be two values at once: every fragment is pruned, yet
	// the aggregate still returns its zero value.
	res, err := s.Query(`count(for $i in collection("items")/Item where $i/Section = "CD" and $i/Section = "DVD" return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || xquery.ItemString(res.Items[0]) != "0" {
		t.Fatalf("items = %v", res.Items)
	}
	if len(res.Sub) != 0 {
		t.Fatalf("sub-queries executed: %+v", res.Sub)
	}
}

func TestMultiCollectionWithFragmentedSide(t *testing.T) {
	// A join between a fragmented collection and an unfragmented lookup
	// table forces coordinator evaluation with full reconstruction of the
	// fragmented side.
	s := newTestSystem(t, 4)
	publishHorizontal(t, s, 12)
	sections := xmltree.NewCollection("sections",
		xmltree.MustParseString("s1", `<SectionInfo><Name>CD</Name><Floor>1</Floor></SectionInfo>`))
	if err := s.Publish(sections, nil, map[string]string{"": "node3"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`
	  for $i in collection("items")/Item, $x in collection("sections")/SectionInfo
	  where $i/Section = $x/Name
	  return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if len(res.Items) != 3 {
		t.Fatalf("join results = %d, want 3 CD items", len(res.Items))
	}
	// Sub timings include fetches from every fragment of items plus the
	// lookup collection.
	if len(res.Sub) != 4 {
		t.Fatalf("fetches = %d, want 3 fragments + 1 lookup", len(res.Sub))
	}
}

func TestDocCallAtCoordinator(t *testing.T) {
	s := newTestSystem(t, 3)
	publishVertical(t, s, 4)
	// doc() resolution at the coordinator during reconstruction.
	res, err := s.Query(`for $a in collection("articles")/article
	  where $a/@id = doc("a001")/article/@id
	  return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct || len(res.Items) != 1 {
		t.Fatalf("strategy=%s items=%d", res.Strategy, len(res.Items))
	}
}

func TestStripPrefixRejectsUnstrippablePaths(t *testing.T) {
	s := newTestSystem(t, 4)
	publishHybrid(t, s, 9, fragmentation.FragModeMD)
	// A bare collection() reference cannot run over item-rooted fragment
	// documents; FragMode1 cannot reconstruct either: error.
	if _, err := s.Query(`count(collection("store"))`); err == nil {
		t.Fatal("bare collection over FragMode1 hybrid succeeded")
	}
}

func TestStripPrefixHandlesConstructsInsideQuery(t *testing.T) {
	s := newTestSystem(t, 4)
	publishHybrid(t, s, 9, fragmentation.FragModeMD)
	// Sequences, constructors, arithmetic and let-clauses all survive the
	// FragMode1 prefix stripping.
	res, err := s.Query(`
	  for $i in collection("store")/Store/Items/Item
	  let $c := $i/Code
	  where $i/Section = "CD"
	  return <r n="{$i/Name}">{$c, 1 + 1}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyRouted || len(res.Items) != 3 {
		t.Fatalf("strategy=%s items=%d", res.Strategy, len(res.Items))
	}
	out := xquery.ItemString(res.Items[0])
	if !strings.Contains(out, "I0") {
		t.Fatalf("result content: %q", out)
	}
}

func TestOrderByAcrossFragmentsViaReconstruct(t *testing.T) {
	// order by over a union would interleave per-fragment sorted runs, so
	// an ordered FLWOR does not decompose: the planner joins the fragments
	// and sorts at the coordinator, giving the centralized order.
	frag := newTestSystem(t, 3)
	publishHorizontal(t, frag, 12)
	central := newTestSystem(t, 1)
	if err := central.Publish(itemsCollection(12), nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	q := `for $i in collection("items")/Item order by $i/Code return $i/Code`
	a, err := frag.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := central.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != len(b.Items) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Items), len(b.Items))
	}
	if a.Strategy != StrategyReconstruct {
		t.Fatalf("strategy %s, want reconstruct", a.Strategy)
	}
	if !reflect.DeepEqual(itemsAsStrings(a.Items), itemsAsStrings(b.Items)) {
		t.Fatalf("order differs:\n%v\n%v", itemsAsStrings(a.Items), itemsAsStrings(b.Items))
	}
}

func TestDocCallOverFragmentedCollectionReconstructs(t *testing.T) {
	s := newTestSystem(t, 3)
	publishHorizontal(t, s, 8)
	// doc() must not be shipped to a fragment node that may lack the
	// document; the coordinator evaluates over the reconstructed
	// collection instead.
	res, err := s.Query(`for $i in collection("items")/Item
	  where $i/Code = doc("i003")/Item/Code
	  return $i/Section`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyReconstruct {
		t.Fatalf("strategy = %s", res.Strategy)
	}
	if len(res.Items) != 1 {
		t.Fatalf("items = %d", len(res.Items))
	}
}
