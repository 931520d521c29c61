package cluster_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/wire"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func testNode(t *testing.T, name string) *wire.LocalNode {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), name+".db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	n := wire.NewLocalNode(name, db)
	if n.Name() != name || n.DB() != db {
		t.Fatal("node accessors wrong")
	}
	return n
}

func loadDocs(t *testing.T, n *wire.LocalNode, collection string, docs int) {
	t.Helper()
	if err := n.CreateCollection(collection); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		doc := xmltree.MustParseString(fmt.Sprintf("d%02d", i),
			fmt.Sprintf("<Item><Code>I%d</Code></Item>", i))
		if err := n.StoreDocument(collection, doc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecuteMeasuresSlowestSite(t *testing.T) {
	n0, n1 := testNode(t, "n0"), testNode(t, "n1")
	loadDocs(t, n0, "a", 2)
	loadDocs(t, n1, "b", 50) // heavier site
	sink := cluster.NewBufferSink(2)
	res, err := cluster.Execute([]cluster.SubQuery{
		{Fragment: "fa", Node: n0, Query: `collection("a")/Item/Code`},
		{Fragment: "fb", Node: n1, Query: `collection("b")/Item/Code`},
	}, cluster.NoNetwork, 1, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sub) != 2 {
		t.Fatalf("sub results = %d", len(res.Sub))
	}
	if res.ParallelTime != max(res.Sub[0].Elapsed, res.Sub[1].Elapsed) {
		t.Fatal("ParallelTime is not the slowest site")
	}
	if res.TotalWork != res.Sub[0].Elapsed+res.Sub[1].Elapsed {
		t.Fatal("TotalWork is not the sum")
	}
	if got := len(sink.Concat()); got != 52 {
		t.Fatalf("items = %d", got)
	}
	if res.TransmissionTime != 0 {
		t.Fatal("cluster.NoNetwork charged transmission")
	}
	if res.ResponseTime() != res.ParallelTime {
		t.Fatal("response time without network must equal parallel time")
	}
}

func TestExecuteChargesTransmission(t *testing.T) {
	n := testNode(t, "n0")
	loadDocs(t, n, "c", 5)
	sink := cluster.NewBufferSink(1)
	res, err := cluster.Execute([]cluster.SubQuery{
		{Fragment: "f", Node: n, Query: `collection("c")/Item`},
	}, cluster.GigabitEthernet, 1, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransmissionTime <= 0 {
		t.Fatal("no transmission charged")
	}
	wantBytes := cluster.SeqBytes(sink.Parts[0])
	if res.Sub[0].ResultBytes != wantBytes {
		t.Fatalf("result bytes %d != %d", res.Sub[0].ResultBytes, wantBytes)
	}
}

func TestExecutePropagatesErrors(t *testing.T) {
	n := testNode(t, "n0")
	_, err := cluster.Execute([]cluster.SubQuery{
		{Fragment: "f", Node: n, Query: `collection("ghost")/X`},
	}, cluster.NoNetwork, 1, cluster.NewBufferSink(1))
	if err == nil {
		t.Fatal("error not propagated")
	}
}

func TestCostModel(t *testing.T) {
	if cluster.GigabitEthernet.Transmission(125_000_000) != time.Second {
		t.Fatal("gigabit speed wrong")
	}
	if cluster.NoNetwork.Transmission(1<<40) != 0 {
		t.Fatal("cluster.NoNetwork not free")
	}
	m := cluster.CostModel{BytesPerSecond: 1000, MessageLatency: time.Millisecond}
	if m.Transmission(500) != 500*time.Millisecond {
		t.Fatalf("transmission = %v", m.Transmission(500))
	}
}

func TestSeqBytes(t *testing.T) {
	node := xmltree.NewElement("a", xmltree.NewText("xy"))
	seq := xquery.Seq{node, "str", 3.5, true}
	want := len(xmltree.NodeString(node)) + len("str") + len("3.5") + len("true")
	if got := cluster.SeqBytes(seq); got != want {
		t.Fatalf("cluster.SeqBytes = %d, want %d", got, want)
	}
}

// countingDriver is a stub node that records how many Query calls run
// simultaneously; it answers with the query text itself.
type countingDriver struct {
	name    string
	inUse   atomic.Int32
	maxSeen atomic.Int32
}

func (d *countingDriver) Name() string                                  { return d.name }
func (d *countingDriver) CreateCollection(string) error                 { return nil }
func (d *countingDriver) HasCollection(string) bool                     { return true }
func (d *countingDriver) StoreDocument(string, *xmltree.Document) error { return nil }
func (d *countingDriver) Fetch(string, cluster.FetchSpec) (*xmltree.Collection, error) {
	return xmltree.NewCollection("c"), nil
}
func (d *countingDriver) CollectionStats(string) (storage.Stats, error) {
	return storage.Stats{}, nil
}
func (d *countingDriver) Query(query, _ string, _ bool, yield func(xquery.Seq) error) ([]obs.Span, error) {
	cur := d.inUse.Add(1)
	for {
		seen := d.maxSeen.Load()
		if cur <= seen || d.maxSeen.CompareAndSwap(seen, cur) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	d.inUse.Add(-1)
	return nil, yield(xquery.Seq{query})
}

func TestExecuteBoundsInFlight(t *testing.T) {
	const subQueries, limit = 100, 8
	d := &countingDriver{name: "n"}
	subs := make([]cluster.SubQuery, subQueries)
	for i := range subs {
		subs[i] = cluster.SubQuery{Fragment: fmt.Sprintf("f%d", i), Node: d, Query: fmt.Sprintf("q%03d", i)}
	}
	sink := cluster.NewBufferSink(subQueries)
	res, err := cluster.Execute(subs, cluster.NoNetwork, limit, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sub) != subQueries {
		t.Fatalf("sub results = %d, want %d", len(res.Sub), subQueries)
	}
	// Results stay in sub-query order regardless of completion order.
	for i, part := range sink.Parts {
		if want := fmt.Sprintf("q%03d", i); xquery.ItemString(part[0]) != want {
			t.Fatalf("result %d is %v, want %s", i, part[0], want)
		}
	}
	if seen := d.maxSeen.Load(); seen > limit {
		t.Fatalf("observed %d concurrent sub-queries, cap is %d", seen, limit)
	}
	if seen := d.maxSeen.Load(); seen < 2 {
		t.Fatalf("observed %d concurrent sub-queries, expected overlap under a cap of %d", seen, limit)
	}
}

// downDriver fails every query with its own message, so failover errors
// can be checked for per-node attribution.
type downDriver struct {
	countingDriver
}

func (d *downDriver) Query(string, string, bool, func(xquery.Seq) error) ([]obs.Span, error) {
	return nil, fmt.Errorf("%s is down", d.name)
}

func TestFailoverErrorNamesEveryNodeTried(t *testing.T) {
	primary := &downDriver{countingDriver{name: "n0"}}
	r1 := &downDriver{countingDriver{name: "n1"}}
	r2 := &downDriver{countingDriver{name: "n2"}}
	_, err := cluster.Execute([]cluster.SubQuery{{
		Fragment: "f", Node: primary, Replicas: []cluster.Driver{r1, r2}, Query: "q",
	}}, cluster.NoNetwork, 1, cluster.NewBufferSink(1))
	if err == nil {
		t.Fatal("all-copies-down sub-query succeeded")
	}
	for _, name := range []string{"n0", "n1", "n2"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error does not name %s: %v", name, err)
		}
	}
}

func TestFailoverReportsServingReplica(t *testing.T) {
	primary := &downDriver{countingDriver{name: "n0"}}
	replica := &countingDriver{name: "n1"}
	res, err := cluster.Execute([]cluster.SubQuery{{
		Fragment: "f", Node: primary, Replicas: []cluster.Driver{replica}, Query: "q",
	}}, cluster.NoNetwork, 1, cluster.NewBufferSink(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sub[0].Node != "n1" {
		t.Fatalf("SubResult.Node = %q, want the serving replica n1", res.Sub[0].Node)
	}
}

func TestExecuteUnlimitedStillOrdered(t *testing.T) {
	d := &countingDriver{name: "n"}
	subs := make([]cluster.SubQuery, 20)
	for i := range subs {
		subs[i] = cluster.SubQuery{Fragment: fmt.Sprintf("f%d", i), Node: d, Query: fmt.Sprintf("q%02d", i)}
	}
	sink := cluster.NewBufferSink(len(subs))
	if _, err := cluster.Execute(subs, cluster.NoNetwork, 0, sink); err != nil {
		t.Fatal(err)
	}
	for i, part := range sink.Parts {
		if want := fmt.Sprintf("q%02d", i); xquery.ItemString(part[0]) != want {
			t.Fatalf("result %d is %v, want %s", i, part[0], want)
		}
	}
}
