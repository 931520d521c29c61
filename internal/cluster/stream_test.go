package cluster_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/obs"
	"partix/internal/wire"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// recordSink buffers batches per sub-query like the coordinator's union
// sink, optionally stopping after a target item count.
type recordSink struct {
	parts   []xquery.Seq
	batches int
	stopAt  int // stop once this many items arrived; 0 = never
	total   int
}

func (r *recordSink) Batch(sub int, items xquery.Seq) (bool, error) {
	r.batches++
	r.total += len(items)
	r.parts[sub] = append(r.parts[sub], items...)
	return r.stopAt > 0 && r.total >= r.stopAt, nil
}

func (r *recordSink) Reset(sub int) { r.parts[sub] = nil }

func (r *recordSink) concat() xquery.Seq {
	var out xquery.Seq
	for _, p := range r.parts {
		out = append(out, p...)
	}
	return out
}

// Whatever the in-flight limit, the scheduler composes exactly what the
// centralized oracle — the engine evaluating each sub-query whole —
// returns, in sub-query order, with frame accounting on top.
func TestExecuteMatchesOracle(t *testing.T) {
	n0, n1 := testNode(t, "n0"), testNode(t, "n1")
	loadDocs(t, n0, "a", 256+30) // past one frame of a node's default 256 items
	loadDocs(t, n1, "b", 7)
	subs := []cluster.SubQuery{
		{Fragment: "fa", Node: n0, Query: `collection("a")/Item/Code`},
		{Fragment: "fb", Node: n1, Query: `collection("b")/Item/Code`},
	}
	oracle := make([]xquery.Seq, len(subs))
	for i, sq := range subs {
		var err error
		if oracle[i], err = sq.Node.(*wire.LocalNode).DB().Query(sq.Query); err != nil {
			t.Fatal(err)
		}
	}
	for _, inflight := range []int{1, 2, 0} {
		sink := &recordSink{parts: make([]xquery.Seq, len(subs))}
		res, err := cluster.Execute(subs, cluster.NoNetwork, inflight, sink)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frames != 3 || res.FirstItem == 0 {
			t.Fatalf("inflight=%d: frames = %d (want 2 + 1), first item %v", inflight, res.Frames, res.FirstItem)
		}
		for i, sub := range res.Sub {
			want, got := oracle[i], sink.parts[i]
			if len(want) != len(got) || sub.ItemCount != len(want) {
				t.Fatalf("inflight=%d sub %d: %d items (count %d), oracle %d", inflight, i, len(got), sub.ItemCount, len(want))
			}
			for j := range want {
				if xquery.ItemString(want[j]) != xquery.ItemString(got[j]) {
					t.Fatalf("inflight=%d sub %d item %d differs: %v vs %v", inflight, i, j, got[j], want[j])
				}
			}
			if sub.ResultBytes != cluster.SeqBytes(got) {
				t.Fatalf("inflight=%d sub %d ResultBytes = %d, want %d", inflight, i, sub.ResultBytes, cluster.SeqBytes(got))
			}
		}
	}
}

// The site clock stops while the coordinator sizes a batch: a node that
// answers instantly with a result that is expensive to serialize must
// not look like a slow site.
func TestSizingStaysOutOfSiteClock(t *testing.T) {
	root := xmltree.NewElement("big")
	for i := 0; i < 200000; i++ {
		root.Append(xmltree.NewElement("c", xmltree.NewText("payload")))
	}
	d := &batchDriver{countingDriver: countingDriver{name: "n0"}, items: xquery.Seq{root}}
	start := time.Now()
	res, err := cluster.Execute([]cluster.SubQuery{{Fragment: "f", Node: d, Query: "q"}}, cluster.NoNetwork, 1, cluster.NewBufferSink(1))
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sub[0].ResultBytes == 0 || res.Sub[0].Elapsed > wall/2 {
		t.Fatalf("site elapsed %v of %v wall: sizing %d bytes was charged to the site",
			res.Sub[0].Elapsed, wall, res.Sub[0].ResultBytes)
	}
}

// batchDriver streams a fixed result in single-item batches and records
// how many batches it got to deliver before cancellation.
type batchDriver struct {
	countingDriver
	items     xquery.Seq
	delivered atomic.Int32
}

func (d *batchDriver) Query(_, _ string, _ bool, yield func(xquery.Seq) error) ([]obs.Span, error) {
	for _, it := range d.items {
		if err := yield(xquery.Seq{it}); err != nil {
			return nil, err
		}
		d.delivered.Add(1)
	}
	return nil, nil
}

// A sink that stops mid-stream cancels the in-flight streams: drivers
// stop producing and the cancelled sub-results are marked.
func TestExecuteStreamEarlyStop(t *testing.T) {
	mkItems := func(n int) xquery.Seq {
		s := make(xquery.Seq, n)
		for i := range s {
			s[i] = fmt.Sprintf("item-%d", i)
		}
		return s
	}
	d0 := &batchDriver{countingDriver: countingDriver{name: "n0"}, items: mkItems(100)}
	subs := []cluster.SubQuery{{Fragment: "f0", Node: d0, Query: "q0"}}
	sink := &recordSink{parts: make([]xquery.Seq, 1), stopAt: 3}
	res, err := cluster.Execute(subs, cluster.NoNetwork, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	if got := d0.delivered.Load(); got >= 100 {
		t.Fatalf("driver delivered all %d batches despite stop", got)
	}
	if !res.Sub[0].Cancelled {
		t.Fatal("cancelled sub-query not marked")
	}
}

// Queued sub-queries behind the concurrency cap are skipped entirely
// once the sink has decided.
func TestExecuteStreamStopSkipsQueued(t *testing.T) {
	const n = 8
	subs := make([]cluster.SubQuery, n)
	drivers := make([]*batchDriver, n)
	for i := range subs {
		drivers[i] = &batchDriver{
			countingDriver: countingDriver{name: fmt.Sprintf("n%d", i)},
			items:          xquery.Seq{true},
		}
		subs[i] = cluster.SubQuery{Fragment: fmt.Sprintf("f%d", i), Node: drivers[i], Query: "q"}
	}
	sink := &recordSink{parts: make([]xquery.Seq, n), stopAt: 1}
	res, err := cluster.Execute(subs, cluster.NoNetwork, 1, sink)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, sub := range res.Sub {
		if sub.Cancelled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no queued sub-query was skipped")
	}
	if sink.total != 1 {
		t.Fatalf("sink received %d items after deciding at 1", sink.total)
	}
}

// failingStreamer delivers some batches, then dies — forcing a failover
// that must reset the sink's partial state first.
type failingStreamer struct {
	countingDriver
	items     xquery.Seq
	failAfter int
}

func (d *failingStreamer) Query(_, _ string, _ bool, yield func(xquery.Seq) error) ([]obs.Span, error) {
	for i, it := range d.items {
		if i == d.failAfter {
			return nil, fmt.Errorf("%s: link died mid-stream", d.name)
		}
		if err := yield(xquery.Seq{it}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func TestExecuteStreamFailoverResetsPartialDelivery(t *testing.T) {
	items := xquery.Seq{"a", "b", "c", "d"}
	primary := &failingStreamer{countingDriver: countingDriver{name: "n0"}, items: items, failAfter: 2}
	replica := &batchDriver{countingDriver: countingDriver{name: "n1"}, items: items}
	subs := []cluster.SubQuery{{Fragment: "f", Node: primary, Replicas: []cluster.Driver{replica}, Query: "q"}}
	sink := &recordSink{parts: make([]xquery.Seq, 1)}
	res, err := cluster.Execute(subs, cluster.NoNetwork, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	got := sink.concat()
	if len(got) != len(items) {
		t.Fatalf("after failover sink holds %d items, want %d (no double delivery)", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d = %v, want %v", i, got[i], items[i])
		}
	}
	if res.Sub[0].Node != "n1" {
		t.Fatalf("served by %q, want replica n1", res.Sub[0].Node)
	}
}

// A sink error aborts the execution without failover: a replica would
// only re-deliver into the same broken consumer.
func TestExecuteStreamSinkErrorAborts(t *testing.T) {
	primary := &batchDriver{countingDriver: countingDriver{name: "n0"}, items: xquery.Seq{"a"}}
	replica := &batchDriver{countingDriver: countingDriver{name: "n1"}, items: xquery.Seq{"a"}}
	subs := []cluster.SubQuery{{Fragment: "f", Node: primary, Replicas: []cluster.Driver{replica}, Query: "q"}}
	_, err := cluster.Execute(subs, cluster.NoNetwork, 0, errorSink{})
	if err == nil || err.Error() != "sink rejected" {
		t.Fatalf("err = %v, want the sink's own error", err)
	}
	if replica.delivered.Load() != 0 {
		t.Fatal("sink failure triggered failover")
	}
}

type errorSink struct{}

func (errorSink) Batch(int, xquery.Seq) (bool, error) { return false, fmt.Errorf("sink rejected") }
func (errorSink) Reset(int)                           {}
