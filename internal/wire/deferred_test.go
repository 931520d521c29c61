package wire

// Coverage for node items as the coordinator receives them: each frame
// is checked on arrival and kept as its payload's bytes; its trees are
// built, together, when a caller first asks for a node.

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// itemsStore opens a node store holding one document of n Items under
// Items, each with a Code and the given number of Note leaves.
func itemsStore(t *testing.T, n, leaves int) *engine.DB {
	t.Helper()
	root := xmltree.NewElement("Items")
	for i := 0; i < n; i++ {
		item := xmltree.NewElement("Item", xmltree.NewAttr("id", fmt.Sprint(i)),
			xmltree.NewElement("Code", xmltree.NewText(fmt.Sprintf("I%03d", i))))
		for l := 0; l < leaves; l++ {
			item.Append(xmltree.NewElement("Note", xmltree.NewText(strings.Repeat("n", 40))))
		}
		root.Append(item)
	}
	db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.Store().CreateCollection("c")
	if err := db.PutDocument("c", xmltree.NewDocument("store", root)); err != nil {
		t.Fatal(err)
	}
	return db
}

// eagerFrames replays a node's framing of q at batch items a frame and
// decodes every frame's node items at once with storage.DecodeBatch.
func eagerFrames(t *testing.T, db *engine.DB, q string, batch int) []*xmltree.Node {
	t.Helper()
	e, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	w := itemWriter{origins: new(engine.Origins)}
	var out []*xmltree.Node
	flush := func() {
		items, err := parseItems(w.count, w.payload)
		if err != nil {
			t.Fatal(err)
		}
		roots, err := storage.DecodeBatch(nodeRecords(items))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, roots...)
		w.reset()
	}
	if _, err := db.StreamQueryExpr(e, w.origins, func(items xquery.Seq) error {
		for _, it := range items {
			if err := w.add(it); err != nil {
				return err
			}
			if w.count == batch {
				flush()
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	flush()
	return out
}

// nodeRecords returns the records and borrowed tables of a frame's node
// items, as DecodeBatch takes them.
func nodeRecords(items []Item) (recs [][]byte, borrow []int) {
	for _, it := range items {
		switch it.Kind {
		case ItemNode:
			recs, borrow = append(recs, it.Node), append(borrow, -1)
		case ItemRange:
			recs, borrow = append(recs, it.Node), append(borrow, it.Table)
		}
	}
	return recs, borrow
}

// receivedAllocs sums the allocations the memory profile attributes to
// what a client does with a frame once gob has read it (Client.query's
// delivery: parsing, checking, handing on).
func receivedAllocs() (objects, bytes int64) {
	return profiledAllocs("wire.(*Client).query.func1")
}

// The cost class of receiving stored Items: a client receiving frames of
// whole Items allocates the same objects and bytes per frame whether each
// Item has 3 or 30 leaves, sizes them (cluster.SeqBytes) at the same cost
// per Item, and builds nothing until a node is asked for. Then the trees
// are those DecodeBatch builds from the same frames, IDs included.
// Decoding every frame on arrival made the bytes per frame, and sizing by
// serializing the trees made the cost per Item, grow with the leaves.
func TestReceivedNodesAreNotBuilt(t *testing.T) {
	const q = `for $i in collection("c")/Items/Item return $i`
	const items, batch, runs = 32, 8, 10
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	type cost struct{ objects, bytes, sizeNs float64 }
	costs := map[int]cost{}
	for _, leaves := range []int{3, 30} {
		db := itemsStore(t, items, leaves)
		_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: batch})
		c := dialStream(t, addr, ClientOptions{})
		receive := func() {
			n := 0
			if err := c.StreamQuery(q, func(s xquery.Seq) error { n += len(s); return nil }); err != nil {
				t.Fatal(err)
			}
			if n != items {
				t.Fatalf("%d leaves: %d Items received, want %d", leaves, n, items)
			}
		}
		receive() // warms the connection and gob's type descriptors
		frames := c.Stats().Frames
		objects, bytes := receivedAllocs()
		for r := 0; r < runs; r++ {
			receive()
		}
		frames = c.Stats().Frames - frames
		o, b := receivedAllocs()
		got := mustQuery(t, c, q)

		// Sizing: the least of several timed rounds, per Item.
		best := time.Duration(1 << 62)
		for r := 0; r < 5; r++ {
			start := time.Now()
			for k := 0; k < 200; k++ {
				cluster.SeqBytes(got)
			}
			best = min(best, time.Since(start))
		}
		costs[leaves] = cost{
			objects: float64(o-objects) / float64(frames),
			bytes:   float64(b-bytes) / float64(frames),
			sizeNs:  float64(best.Nanoseconds()) / (200 * items),
		}

		want := eagerFrames(t, db, q, batch)
		if len(want) != len(got) {
			t.Fatalf("%d leaves: %d Items received, the frames decode to %d", leaves, len(got), len(want))
		}
		for i, it := range got {
			if _, built := it.(*xmltree.Node); built {
				t.Fatalf("%d leaves: Item %d arrived as a tree", leaves, i)
			}
			n, ok := xquery.NodeOf(it)
			if !ok || !xmltree.Equal(n, want[i]) || !sameIDs(n, want[i]) {
				t.Fatalf("%d leaves: Item %d builds to %s, its frame decodes to %s",
					leaves, i, nodeText(n), xmltree.NodeString(want[i]))
			}
			if again, _ := xquery.NodeOf(it); again != n {
				t.Fatalf("%d leaves: Item %d builds a second tree", leaves, i)
			}
		}
	}
	t.Logf("per frame received: %+v (by leaves per Item)", costs)
	if costs[30].objects != costs[3].objects || costs[30].bytes != costs[3].bytes {
		t.Errorf("receiving a frame allocates %.0f objects, %.0f bytes at 3 leaves an Item, %.0f, %.0f at 30: want the same",
			costs[3].objects, costs[3].bytes, costs[30].objects, costs[30].bytes)
	}
	if costs[30].sizeNs > 2*costs[3].sizeNs {
		t.Errorf("sizing an Item costs %.1f ns at 3 leaves, %.1f ns at 30: want no growth",
			costs[3].sizeNs, costs[30].sizeNs)
	}
}

// A frame whose node item fails the check fails the query on arrival,
// with the error decoding it gives, and hands the consumer nothing.
func TestCorruptFrameFailsOnArrival(t *testing.T) {
	var enc storage.Encoder
	rec := enc.Append(nil, xmltree.MustParseString("x", `<Item><Code>I1</Code></Item>`).Root)
	rec = rec[:len(rec)-1] // cut inside the last text value
	payload := append([]byte{byte(ItemString), 1, 'a', byte(ItemNode), byte(len(rec))}, rec...)
	addr, _, _ := otherVersionServer(t, func(req *Request) any {
		if req.Op != OpQueryStream {
			return &Response{Proto: ProtocolVersion}
		}
		return &Frame{Kind: FrameEnd, Count: 2, Payload: payload, Total: 2}
	})
	c := dialStream(t, addr, ClientOptions{})
	delivered := 0
	err := c.StreamQuery(`collection("c")`, func(xquery.Seq) error { delivered++; return nil })
	_, want := storage.DecodeBatch([][]byte{rec}, []int{-1})
	if err == nil || want == nil || err.Error() != want.Error() || delivered != 0 {
		t.Fatalf("query error %v after %d frames, want %v and none", err, delivered, want)
	}
	var nodeErr *NodeError
	if errors.As(err, &nodeErr) {
		t.Fatalf("a corrupt frame is reported as the node's own error: %v", err)
	}
}
