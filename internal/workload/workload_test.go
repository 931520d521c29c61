package workload

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/fragmentation"
	"partix/internal/partix"
	"partix/internal/toxgene"
	"partix/internal/wire"
	"partix/internal/xbench"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func TestQuerySetsParse(t *testing.T) {
	sets := map[string][]Query{
		"horizontal": Horizontal("items"),
		"vertical":   Vertical("articles"),
		"hybrid":     Hybrid("store"),
	}
	wantLen := map[string]int{"horizontal": 8, "vertical": 10, "hybrid": 11}
	for name, set := range sets {
		if len(set) != wantLen[name] {
			t.Errorf("%s: %d queries, want %d", name, len(set), wantLen[name])
		}
		seen := map[string]bool{}
		for _, q := range set {
			if seen[q.ID] {
				t.Errorf("%s: duplicate ID %s", name, q.ID)
			}
			seen[q.ID] = true
			if _, err := xquery.Parse(q.Text); err != nil {
				t.Errorf("%s/%s: %v", name, q.ID, err)
			}
			if q.Class == "" || q.Note == "" {
				t.Errorf("%s/%s: missing class or note", name, q.ID)
			}
		}
	}
}

func TestByID(t *testing.T) {
	set := Horizontal("items")
	if ByID(set, "HQ5") == nil || ByID(set, "HQ99") != nil {
		t.Fatal("ByID wrong")
	}
}

func TestHorizontalSchemeValidAndCorrect(t *testing.T) {
	c := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 60, Seed: 11})
	for _, k := range []int{2, 4, 8} {
		scheme, err := HorizontalScheme("items", k)
		if err != nil {
			t.Fatal(err)
		}
		if len(scheme.Fragments) != k {
			t.Fatalf("k=%d: %d fragments", k, len(scheme.Fragments))
		}
		if err := scheme.Check(c); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	if _, err := HorizontalScheme("items", 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := HorizontalScheme("items", 99); err == nil {
		t.Fatal("k=99 accepted")
	}
}

func TestHybridSchemeValidAndCorrect(t *testing.T) {
	c := toxgene.GenerateStore(toxgene.StoreConfig{Items: 40, Seed: 12})
	scheme := HybridScheme("store")
	if len(scheme.Fragments) != 5 {
		t.Fatalf("fragments = %d, want 5 (F1 + 4 item groups)", len(scheme.Fragments))
	}
	if err := scheme.Check(c); err != nil {
		t.Fatal(err)
	}
}

// --- end-to-end transparency: fragmented answers == centralized answers ---

func newSystem(t *testing.T, nodes int) *partix.System {
	t.Helper()
	s := partix.NewSystem(cluster.GigabitEthernet)
	for i := 0; i < nodes; i++ {
		db, err := engine.Open(filepath.Join(t.TempDir(), fmt.Sprintf("n%d.db", i)), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		s.AddNode(wire.NewLocalNode(fmt.Sprintf("node%d", i), db))
	}
	return s
}

func multiset(items xquery.Seq) []string {
	out := make([]string, len(items))
	for i, it := range items {
		if n, ok := xquery.NodeOf(it); ok {
			out[i] = xmltree.NodeString(n)
		} else {
			out[i] = xquery.ItemString(it)
		}
	}
	sort.Strings(out)
	return out
}

func assertSameAnswers(t *testing.T, set []Query, frag, central *partix.System) {
	t.Helper()
	for _, q := range set {
		fr, err := frag.Query(q.Text)
		if err != nil {
			t.Fatalf("%s (fragmented): %v", q.ID, err)
		}
		cr, err := central.Query(q.Text)
		if err != nil {
			t.Fatalf("%s (centralized): %v", q.ID, err)
		}
		fs, cs := multiset(fr.Items), multiset(cr.Items)
		if len(fs) != len(cs) {
			t.Errorf("%s: %d items fragmented (%s), %d centralized", q.ID, len(fs), fr.Strategy, len(cs))
			continue
		}
		for i := range fs {
			if fs[i] != cs[i] {
				t.Errorf("%s: item %d differs (%s):\n  frag: %.120s\n  cent: %.120s", q.ID, i, fr.Strategy, fs[i], cs[i])
				break
			}
		}
	}
}

func TestHorizontalWorkloadTransparency(t *testing.T) {
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 80, Seed: 21})
	for _, k := range []int{2, 4, 8} {
		scheme, err := HorizontalScheme("items", k)
		if err != nil {
			t.Fatal(err)
		}
		frag := newSystem(t, k)
		placement := map[string]string{}
		for i, f := range scheme.Fragments {
			placement[f.Name] = fmt.Sprintf("node%d", i)
		}
		if err := frag.Publish(items.Clone(), scheme, placement, partix.PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		central := newSystem(t, 1)
		if err := central.Publish(items.Clone(), nil, map[string]string{"": "node0"}, partix.PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, Horizontal("items"), frag, central)
	}
}

func TestVerticalWorkloadTransparency(t *testing.T) {
	articles := xbench.Generate(xbench.Config{Docs: 12, Seed: 22, Sections: 3, Paragraphs: 4})
	scheme := xbench.VerticalScheme("articles")
	frag := newSystem(t, 3)
	placement := map[string]string{"F1papers": "node0", "F2papers": "node1", "F3papers": "node2"}
	if err := frag.Publish(articles.Clone(), scheme, placement, partix.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	central := newSystem(t, 1)
	if err := central.Publish(articles.Clone(), nil, map[string]string{"": "node0"}, partix.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, Vertical("articles"), frag, central)
}

func TestVerticalRoutingExpectations(t *testing.T) {
	articles := xbench.Generate(xbench.Config{Docs: 10, Seed: 23, Sections: 3, Paragraphs: 4})
	frag := newSystem(t, 3)
	placement := map[string]string{"F1papers": "node0", "F2papers": "node1", "F3papers": "node2"}
	if err := frag.Publish(articles, xbench.VerticalScheme("articles"), placement, partix.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	single := map[string]bool{"VQ1": true, "VQ2": true, "VQ3": true, "VQ5": true, "VQ6": true, "VQ10": true}
	for _, q := range Vertical("articles") {
		res, err := frag.Query(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if single[q.ID] && res.Strategy != partix.StrategyRouted {
			t.Errorf("%s: strategy %s, want routed", q.ID, res.Strategy)
		}
		if q.Class == ClassMultiFrag && res.Strategy != partix.StrategyReconstruct {
			t.Errorf("%s: strategy %s, want reconstruct", q.ID, res.Strategy)
		}
	}
}

func TestHybridWorkloadTransparency(t *testing.T) {
	for _, mode := range []fragmentation.MaterializeMode{fragmentation.FragModeSD, fragmentation.FragModeMD} {
		store := toxgene.GenerateStore(toxgene.StoreConfig{Items: 50, Seed: 24})
		scheme := HybridScheme("store")
		frag := newSystem(t, 5)
		placement := map[string]string{}
		for i, f := range scheme.Fragments {
			placement[f.Name] = fmt.Sprintf("node%d", i)
		}
		if err := frag.Publish(store.Clone(), scheme, placement, partix.PublishOptions{Mode: mode}); err != nil {
			t.Fatal(err)
		}
		central := newSystem(t, 1)
		if err := central.Publish(store.Clone(), nil, map[string]string{"": "node0"}, partix.PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, Hybrid("store"), frag, central)
	}
}

func TestHybridRoutingExpectations(t *testing.T) {
	store := toxgene.GenerateStore(toxgene.StoreConfig{Items: 50, Seed: 25})
	scheme := HybridScheme("store")
	frag := newSystem(t, 5)
	placement := map[string]string{}
	for i, f := range scheme.Fragments {
		placement[f.Name] = fmt.Sprintf("node%d", i)
	}
	if err := frag.Publish(store, scheme, placement, partix.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	expect := map[string]partix.Strategy{
		"YQ1":  partix.StrategyRouted,    // Section=CD → one fragment
		"YQ3":  partix.StrategyRouted,    // Section=DVD
		"YQ4":  partix.StrategyRouted,    // Section=Book
		"YQ5":  partix.StrategyUnion,     // text search over all item fragments
		"YQ9":  partix.StrategyRouted,    // prune side → F1store
		"YQ10": partix.StrategyRouted,    // prune side → F1store
		"YQ11": partix.StrategyAggregate, // count composed by sum
	}
	for _, q := range Hybrid("store") {
		want, ok := expect[q.ID]
		if !ok {
			continue
		}
		res, err := frag.Query(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if res.Strategy != want {
			t.Errorf("%s: strategy %s, want %s", q.ID, res.Strategy, want)
		}
	}
}
