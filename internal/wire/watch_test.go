package wire

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"partix/internal/xmltree"
)

// recordingSink is a cluster.WatchSink that logs what it is told.
type recordingSink struct {
	mu     sync.Mutex
	events []string
	gens   map[string]uint64
}

func newRecordingSink() *recordingSink { return &recordingSink{gens: map[string]uint64{}} }

func (r *recordingSink) Bump(collection string, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gens[collection] = max(r.gens[collection], gen)
}

func (r *recordingSink) Up()   { r.log("up") }
func (r *recordingSink) Down() { r.log("down") }

func (r *recordingSink) log(ev string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recordingSink) state() (string, map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gens := map[string]uint64{}
	for c, g := range r.gens {
		gens[c] = g
	}
	return strings.Join(r.events, " "), gens
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func watchDoc(i int) *xmltree.Document {
	return xmltree.MustParseString(fmt.Sprintf("w%02d", i), fmt.Sprintf("<Item><Code>W%d</Code></Item>", i))
}

// A watch over TCP hears every write through the client, and a write made
// on the node's engine directly, with the generation the engine reached.
func TestWatchReportsWrites(t *testing.T) {
	db := newNodeDB(t, 2)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	c, err := DialWith("n", addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sink := newRecordingSink()
	stop, err := c.Watch(sink)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if ev, _ := sink.state(); ev != "up" {
		t.Fatalf("events after Watch = %q, want up", ev)
	}
	if err := c.StoreDocument("c", watchDoc(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument("c", "d00"); err != nil {
		t.Fatal(err)
	}
	want := db.Generation("c")
	waitFor(t, "the bumps", func() bool { _, g := sink.state(); return g["c"] == want })
}

// A lost watch connection is reported, the client resubscribes by itself,
// and the new subscription hears writes again.
func TestWatchResubscribesAfterLoss(t *testing.T) {
	db := newNodeDB(t, 1)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	proxy := newFaultProxy(t, addr)
	c, err := DialWith("n", proxy.addr(), ClientOptions{RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sink := newRecordingSink()
	stop, err := c.Watch(sink)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	proxy.sever()
	waitFor(t, "the loss and the resubscription", func() bool { ev, _ := sink.state(); return ev == "up down up" })
	if err := db.PutDocument("c", watchDoc(2)); err != nil {
		t.Fatal(err)
	}
	want := db.Generation("c")
	waitFor(t, "a bump after resubscribing", func() bool { _, g := sink.state(); return g["c"] == want })
}

// Server.Close and Client.Close end the watch on both sides, in either
// order: no goroutine outlives them.
func TestWatchEndsWithClose(t *testing.T) {
	for _, clientFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("clientFirst=%v", clientFirst), func(t *testing.T) {
			db := newNodeDB(t, 1)
			before := runtime.NumGoroutine()
			srv, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{IdleTimeout: time.Minute})
			c, err := DialWith("n", addr, ClientOptions{RetryBackoff: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Watch(newRecordingSink()); err != nil {
				t.Fatal(err)
			}
			if err := c.StoreDocument("c", watchDoc(3)); err != nil {
				t.Fatal(err)
			}
			if clientFirst {
				c.Close()
				srv.Close()
			} else {
				srv.Close()
				c.Close()
			}
			waitFor(t, fmt.Sprintf("goroutines back to %d", before), func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// A LocalNode's watch is the engine's commit subscription: the bump has
// arrived when the write returns.
func TestLocalNodeWatchIsSynchronous(t *testing.T) {
	db := newNodeDB(t, 1)
	n := NewLocalNode("n", db)
	sink := newRecordingSink()
	stop, err := n.Watch(sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.StoreDocument("c", watchDoc(4)); err != nil {
		t.Fatal(err)
	}
	if ev, g := sink.state(); ev != "up" || g["c"] != db.Generation("c") {
		t.Fatalf("after the write: events %q, generation %d; want up, %d", ev, g["c"], db.Generation("c"))
	}
	stop()
	if err := n.StoreDocument("c", watchDoc(5)); err != nil {
		t.Fatal(err)
	}
	if _, g := sink.state(); g["c"] == db.Generation("c") {
		t.Fatal("a stopped watch still hears writes")
	}
}
