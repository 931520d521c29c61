package partix_test

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"partix"
)

// These tests exercise the public facade the way a downstream user would:
// no internal packages except for the already-tested building blocks.

func facadeSystem(t *testing.T, nodes int) *partix.System {
	t.Helper()
	sys := partix.NewSystem(partix.GigabitEthernet)
	for i := 0; i < nodes; i++ {
		db, err := partix.OpenEngine(filepath.Join(t.TempDir(), fmt.Sprintf("n%d.db", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		sys.AddNode(partix.NewLocalNode(fmt.Sprintf("node%d", i), db))
	}
	return sys
}

func facadeItems(t *testing.T, n int) *partix.Collection {
	t.Helper()
	col := partix.NewCollection("items")
	sections := []string{"CD", "DVD", "Book"}
	for i := 0; i < n; i++ {
		doc, err := partix.ParseDocument(fmt.Sprintf("i%02d", i), fmt.Sprintf(
			`<Item id="%d"><Code>I%02d</Code><Name>n%d</Name><Description>thing %d</Description><Section>%s</Section></Item>`,
			i, i, i, i, sections[i%3]))
		if err != nil {
			t.Fatal(err)
		}
		col.Add(doc)
	}
	return col
}

func TestFacadePublishAndQuery(t *testing.T) {
	sys := facadeSystem(t, 2)
	fCD, err := partix.Horizontal("Fcd", `/Item/Section = "CD"`)
	if err != nil {
		t.Fatal(err)
	}
	fRest, err := partix.Horizontal("Frest", `/Item/Section != "CD"`)
	if err != nil {
		t.Fatal(err)
	}
	scheme := &partix.Scheme{Collection: "items", Fragments: []*partix.Fragment{fCD, fRest}}
	col := facadeItems(t, 9)
	if err := scheme.Check(col); err != nil {
		t.Fatal(err)
	}
	err = sys.Publish(col, scheme, map[string]string{"Fcd": "node0", "Frest": "node1"},
		partix.PublishOptions{CheckCorrectness: true})
	if err != nil {
		t.Fatal(err)
	}

	res, err := sys.Query(`for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != partix.StrategyRouted || len(res.Items) != 3 {
		t.Fatalf("strategy=%s items=%d", res.Strategy, len(res.Items))
	}
	if partix.ItemString(res.Items[0]) != "n0" {
		t.Fatalf("first = %q", partix.ItemString(res.Items[0]))
	}
	node, ok := partix.ItemNode(res.Items[0])
	if !ok || partix.NodeString(node) != "<Name>n0</Name>" {
		t.Fatalf("node = %v", res.Items[0])
	}

	plan, err := sys.Explain(`count(for $i in collection("items")/Item return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != partix.StrategyAggregate || len(plan.Steps) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestFacadeVerticalAndSchemas(t *testing.T) {
	if partix.VirtualStoreSchema().Type("Item") == nil {
		t.Fatal("virtual store schema incomplete")
	}
	if partix.XBenchArticleSchema().Type("article") == nil {
		t.Fatal("xbench schema incomplete")
	}
	fProlog, err := partix.Vertical("Fp", "/article/prolog")
	if err != nil {
		t.Fatal(err)
	}
	fRest, err := partix.Vertical("Fr", "/article", "/article/prolog")
	if err != nil {
		t.Fatal(err)
	}
	scheme := &partix.Scheme{Collection: "arts", Fragments: []*partix.Fragment{fProlog, fRest}}
	doc, err := partix.ParseDocument("a1",
		`<article id="a1"><prolog><title>t</title></prolog><body><p>x</p></body><epilog/></article>`)
	if err != nil {
		t.Fatal(err)
	}
	col := partix.NewCollection("arts", doc)
	if err := scheme.Check(col); err != nil {
		t.Fatal(err)
	}
	if got := partix.SerializeDocument(doc); got == "" {
		t.Fatal("serialize empty")
	}
}

func TestFacadeHybridModes(t *testing.T) {
	f, err := partix.Hybrid("Fcd", "/Store/Items", nil, `/Item/Section = "CD"`)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind.String() != "hybrid" {
		t.Fatalf("kind = %s", f.Kind)
	}
	if partix.FragMode1.String() != "FragMode1" || partix.FragMode2.String() != "FragMode2" {
		t.Fatal("mode names wrong")
	}
}

func TestFacadeRemoteNode(t *testing.T) {
	db, err := partix.OpenEngine(filepath.Join(t.TempDir(), "remote.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := partix.ServeNode(db, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	client, err := partix.DialNode("r0", l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	sys := partix.NewSystem(partix.NoNetwork)
	sys.AddNode(client)
	col := facadeItems(t, 4)
	if err := sys.Publish(col, nil, map[string]string{"": "r0"}, partix.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`count(collection("items")/Item)`)
	if err != nil {
		t.Fatal(err)
	}
	if partix.ItemString(res.Items[0]) != "4" {
		t.Fatalf("count = %v", res.Items)
	}
	// Node answers arrive over TCP unbuilt: ItemNode builds them, and
	// they print as XML, not as their string values.
	res, err = sys.Query(`for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("items = %v", res.Items)
	}
	if _, built := res.Items[0].(*partix.Node); built {
		t.Fatal("a node of a remote union arrived built")
	}
	node, ok := partix.ItemNode(res.Items[0])
	if !ok || partix.NodeString(node) != "<Name>n0</Name>" {
		t.Fatalf("node = %v", res.Items[0])
	}
	if again, _ := partix.ItemNode(res.Items[0]); again != node {
		t.Fatal("a second ItemNode returns another tree")
	}
}

func TestFacadeDesignAdvisor(t *testing.T) {
	col := facadeItems(t, 30)
	queries := []partix.WorkloadQuery{
		{Text: `for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`, Weight: 5},
	}
	scheme, err := partix.ProposeHorizontalDesign(col, queries, partix.HorizontalDesignOptions{MaxFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := scheme.Check(col); err != nil {
		t.Fatal(err)
	}
	placement, err := partix.AllocateFragments(scheme, col, []string{"n0", "n1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(placement) != len(scheme.Fragments) {
		t.Fatalf("placement = %v", placement)
	}

	// Vertical advisor over article-shaped documents.
	arts := partix.NewCollection("arts")
	for i := 0; i < 4; i++ {
		doc, err := partix.ParseDocument(fmt.Sprintf("a%d", i), fmt.Sprintf(
			`<article id="a%d"><prolog><title>t%d</title></prolog><body><p>text %d</p></body><epilog><c>x</c></epilog></article>`, i, i, i))
		if err != nil {
			t.Fatal(err)
		}
		arts.Add(doc)
	}
	advice, err := partix.ProposeVerticalDesign(arts, []partix.WorkloadQuery{
		{Text: `for $a in collection("arts")/article return $a/prolog/title`},
		{Text: `for $a in collection("arts")/article return $a/body`},
	}, partix.VerticalDesignOptions{MaxFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := advice.Scheme.Check(arts); err != nil {
		t.Fatal(err)
	}
}
