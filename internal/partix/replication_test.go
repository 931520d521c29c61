package partix

import (
	"fmt"
	"strings"
	"testing"

	"partix/internal/cluster"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// failingNode wraps a driver and fails every operation once armed —
// simulating a node outage.
type failingNode struct {
	cluster.Driver
	down bool
}

func (f *failingNode) Query(q, tag string, trace bool, yield func(xquery.Seq) error) ([]obs.Span, error) {
	if f.down {
		return nil, fmt.Errorf("node %s is down", f.Name())
	}
	return f.Driver.Query(q, tag, trace, yield)
}

func (f *failingNode) Fetch(c string, spec cluster.FetchSpec) (*xmltree.Collection, error) {
	if f.down {
		return nil, fmt.Errorf("node %s is down", f.Name())
	}
	return f.Driver.Fetch(c, spec)
}

func (f *failingNode) CollectionStats(c string) (storage.Stats, error) {
	if f.down {
		return storage.Stats{}, fmt.Errorf("node %s is down", f.Name())
	}
	return f.Driver.CollectionStats(c)
}

// replicatedSystem publishes the horizontal items scheme with node0's
// fragments replicated on node2, and wraps node0 so it can be downed.
func replicatedSystem(t *testing.T) (*System, *failingNode) {
	t.Helper()
	s := newTestSystem(t, 3)
	primary := s.Node("node0")
	failer := &failingNode{Driver: primary}
	s.AddNode(failer) // replaces node0 with the failable wrapper

	err := s.Publish(itemsCollection(12), horizontalScheme(), map[string]string{
		"Fcd": "node0", "Fdvd": "node1", "Frest": "node1",
	}, PublishOptions{
		Replicas: map[string][]string{"Fcd": {"node2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, failer
}

func TestReplicationPublishesCopies(t *testing.T) {
	s, _ := replicatedSystem(t)
	// The replica node holds a full copy of the fragment.
	primary, err := s.Node("node0").CollectionStats("items::Fcd")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := s.Node("node2").CollectionStats("items::Fcd")
	if err != nil {
		t.Fatal(err)
	}
	if primary.Documents == 0 || primary.Documents != replica.Documents {
		t.Fatalf("primary %d docs, replica %d", primary.Documents, replica.Documents)
	}
}

func TestFailoverToReplica(t *testing.T) {
	s, failer := replicatedSystem(t)
	q := `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`

	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Items)
	if want == 0 {
		t.Fatal("no CD items in fixture")
	}

	failer.down = true
	res, err = s.Query(q)
	if err != nil {
		t.Fatalf("failover did not kick in: %v", err)
	}
	if len(res.Items) != want {
		t.Fatalf("failover answer has %d items, want %d", len(res.Items), want)
	}
}

func TestFailoverExhaustedReportsError(t *testing.T) {
	s, failer := replicatedSystem(t)
	failer.down = true
	// Fdvd has no replicas and lives on node1 — fine. Query something on
	// the failed node without replicas: repoint Fcd's replica away first.
	s.Catalog().Lookup("items").Replicas = nil
	if _, err := s.Query(`for $i in collection("items")/Item where $i/Section = "CD" return $i`); err == nil {
		t.Fatal("query over a dead, unreplicated node succeeded")
	}
}

// pingCloseDriver wraps a driver with the optional liveness and closing
// extensions remote drivers implement.
type pingCloseDriver struct {
	cluster.Driver
	pingErr error
	closed  bool
}

func (d *pingCloseDriver) Ping() error  { return d.pingErr }
func (d *pingCloseDriver) Close() error { d.closed = true; return nil }

func TestCheckNodesAndCloseNodes(t *testing.T) {
	s := newTestSystem(t, 2)
	healthy := &pingCloseDriver{Driver: s.Node("node0")}
	down := &pingCloseDriver{Driver: s.Node("node1"), pingErr: fmt.Errorf("link down")}
	s.AddNode(healthy)
	s.AddNode(down)

	hc := s.CheckNodes()
	if hc["node0"] != nil {
		t.Fatalf("healthy node reported %v", hc["node0"])
	}
	if hc["node1"] == nil {
		t.Fatal("dead node reported healthy")
	}
	if err := s.CloseNodes(); err != nil {
		t.Fatal(err)
	}
	if !healthy.closed || !down.closed {
		t.Fatal("CloseNodes skipped a closable driver")
	}
}

func TestFailoverErrorNamesFailedNode(t *testing.T) {
	s, failer := replicatedSystem(t)
	failer.down = true
	s.Catalog().Lookup("items").Replicas = nil
	_, err := s.Query(`for $i in collection("items")/Item where $i/Section = "CD" return $i`)
	if err == nil {
		t.Fatal("query over a dead, unreplicated node succeeded")
	}
	if !strings.Contains(err.Error(), "node0") {
		t.Fatalf("error does not name the failed node: %v", err)
	}
}

func TestReplicaValidation(t *testing.T) {
	s := newTestSystem(t, 2)
	err := s.Publish(itemsCollection(4), horizontalScheme(), map[string]string{
		"Fcd": "node0", "Fdvd": "node1", "Frest": "node1",
	}, PublishOptions{Replicas: map[string][]string{"Fcd": {"ghost"}}})
	if err == nil {
		t.Fatal("unknown replica node accepted")
	}
}

func TestConcurrentExecutionMatchesSequential(t *testing.T) {
	seq := newTestSystem(t, 3)
	publishHorizontal(t, seq, 24)
	conc := newTestSystem(t, 3)
	publishHorizontal(t, conc, 24)
	conc.SetConcurrent(true)
	if !conc.Concurrent() || seq.Concurrent() {
		t.Fatal("mode flags wrong")
	}

	queries := []string{
		`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
		`count(for $i in collection("items")/Item return $i)`,
		`for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`,
	}
	for _, q := range queries {
		a, err := seq.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := conc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		as, bs := itemsAsStrings(a.Items), itemsAsStrings(b.Items)
		counts := map[string]int{}
		for _, v := range as {
			counts[v]++
		}
		for _, v := range bs {
			counts[v]--
		}
		for k, c := range counts {
			if c != 0 {
				t.Fatalf("%s: concurrent result differs at %q", q, k)
			}
		}
		if a.Strategy != b.Strategy {
			t.Fatalf("%s: strategies differ: %s vs %s", q, a.Strategy, b.Strategy)
		}
	}
}

func TestReconstructionFailover(t *testing.T) {
	s := newTestSystem(t, 4)
	primary := s.Node("node0")
	failer := &failingNode{Driver: primary}
	s.AddNode(failer)
	err := s.Publish(articlesCollection(6), verticalScheme(), map[string]string{
		"Fprolog": "node0", "Fbody": "node1", "Fepilog": "node2",
	}, PublishOptions{Replicas: map[string][]string{"Fprolog": {"node3"}}})
	if err != nil {
		t.Fatal(err)
	}
	failer.down = true
	// VQ8-style whole-document query needs all fragments, including the
	// prolog from the replica.
	res, err := s.Query(`for $a in collection("articles")/article where $a/@id = "a1" return $a`)
	if err != nil {
		t.Fatalf("reconstruction failover failed: %v", err)
	}
	if len(res.Items) != 1 {
		t.Fatalf("items = %d", len(res.Items))
	}
	root := res.Items[0].(*xmltree.Node)
	if root.Child("prolog") == nil {
		t.Fatal("reconstructed article lacks prolog from replica")
	}
}

// A multi-collection query materializes whole collections at the
// coordinator; with the primary of a fragment and of an unfragmented
// collection dead, both fetches must come from their replicas.
func TestMultiCollectionFetchFailsOverToReplica(t *testing.T) {
	s, failer := replicatedSystem(t) // items: Fcd on node0, replica on node2
	lookup := xmltree.NewCollection("sections",
		xmltree.MustParseString("s1", `<SectionInfo><Name>CD</Name><Floor>1</Floor></SectionInfo>`),
		xmltree.MustParseString("s2", `<SectionInfo><Name>DVD</Name><Floor>2</Floor></SectionInfo>`),
	)
	err := s.Publish(lookup, nil, map[string]string{"": "node0"},
		PublishOptions{Replicas: map[string][]string{"": {"node1"}}})
	if err != nil {
		t.Fatal(err)
	}
	q := `for $i in collection("items")/Item, $s in collection("sections")/SectionInfo
	      where $i/Section = $s/Name return <loc>{$i/Code, $s/Floor}</loc>`
	healthy, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Strategy != StrategyReconstruct || len(healthy.Items) == 0 {
		t.Fatalf("healthy run: strategy %s, %d items", healthy.Strategy, len(healthy.Items))
	}

	failer.down = true
	res, err := s.Query(q)
	if err != nil {
		t.Fatalf("multi-collection fetch did not fail over: %v", err)
	}
	if fmt.Sprint(itemsAsStrings(res.Items)) != fmt.Sprint(itemsAsStrings(healthy.Items)) {
		t.Fatalf("failover answer differs:\n%v\n%v", itemsAsStrings(res.Items), itemsAsStrings(healthy.Items))
	}
	for _, st := range res.Sub {
		if st.Node == "node0" {
			t.Fatalf("dead node0 reported as serving %q: %+v", st.Fragment, res.Sub)
		}
	}
}
