package wire_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"partix"
	"partix/internal/wire"
)

// These tests drive node shedding over real TCP nodes, as the node's
// client and through the public facade, whose ErrOverloaded is the
// sentinel a caller matches, so they live in an external test package.
// The server's test seam holds a query inside its in-flight slot, so a
// node at capacity sheds the next one without depending on timing.

// tcpNode is one engine served over loopback TCP and the coordinator's
// driver for it.
type tcpNode struct {
	srv     *partix.NodeServer
	client  *partix.RemoteNode
	addr    string
	entered chan struct{} // a holdQuery reached its work
	unblock chan struct{} // closed to let held queries finish
}

// holdQuery is the query text the node's seam holds: it takes an
// in-flight slot and keeps it until the test releases it.
const holdQuery = `count(collection("items::Fcd")/Item)`

// startTCPNode serves a fresh engine with srvOpts and dials it as name.
// Transport retries are off so a downed node fails fast.
func startTCPNode(t *testing.T, name string, srvOpts partix.NodeServerOptions) *tcpNode {
	t.Helper()
	db, err := partix.OpenEngine(filepath.Join(t.TempDir(), name+".db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &tcpNode{addr: l.Addr().String(), entered: make(chan struct{}, 1), unblock: make(chan struct{})}
	n.srv = wire.NewServerWith(db, nil, srvOpts)
	n.srv.SetHook(func(req *wire.Request) {
		if req.Query == holdQuery {
			n.entered <- struct{}{}
			<-n.unblock
		}
	})
	go n.srv.Serve(l)
	t.Cleanup(func() { n.srv.Close() })
	n.client, err = partix.DialNodeWith(name, n.addr, partix.NodeClientOptions{
		DialTimeout: time.Second, MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.client.Close() })
	return n
}

// hold takes one of the node's in-flight slots with a holdQuery from a
// client of its own and keeps it until the returned release is called
// (at the latest when the test ends).
func (n *tcpNode) hold(t *testing.T) (release func()) {
	t.Helper()
	holder, err := partix.DialNodeWith("holder", n.addr, partix.NodeClientOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { holder.Close() })
	// A node frees a stream's slot before it sends the stream's last
	// frame, so the slot of a query that has returned is free: one attempt
	// takes it.
	done := make(chan error, 1)
	go func() {
		_, err := holder.ExecuteQuery(holdQuery)
		done <- err
	}()
	select {
	case <-n.entered:
	case err := <-done:
		t.Fatalf("holding query: %v", err)
	}
	release = sync.OnceFunc(func() {
		close(n.unblock)
		if err := <-done; err != nil {
			t.Errorf("held query: %v", err)
		}
	})
	t.Cleanup(release) // before the server's Close, which drains it
	return release
}

// oneSlot is a node that serves one query or fetch at a time and sheds
// any that arrives meanwhile.
var oneSlot = partix.NodeServerOptions{MaxInflight: 1}

// publishSections publishes 12 items fragmented on Section into
// Fcd/Frest, placed and replicated as given.
func publishSections(t *testing.T, sys *partix.System, placement map[string]string, replicas map[string][]string) {
	t.Helper()
	fCD, err := partix.Horizontal("Fcd", `/Item/Section = "CD"`)
	if err != nil {
		t.Fatal(err)
	}
	fRest, err := partix.Horizontal("Frest", `/Item/Section != "CD"`)
	if err != nil {
		t.Fatal(err)
	}
	col := partix.NewCollection("items")
	for i := 0; i < 12; i++ {
		section := "Book"
		if i%3 == 0 {
			section = "CD"
		}
		doc, err := partix.ParseDocument(fmt.Sprintf("i%02d", i), fmt.Sprintf(
			`<Item id="%d"><Code>I%02d</Code><Section>%s</Section></Item>`, i, i, section))
		if err != nil {
			t.Fatal(err)
		}
		col.Add(doc)
	}
	scheme := &partix.Scheme{Collection: "items", Fragments: []*partix.Fragment{fCD, fRest}}
	if err := sys.Publish(col, scheme, placement, partix.PublishOptions{Replicas: replicas}); err != nil {
		t.Fatal(err)
	}
}

const (
	cdQuery   = `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`
	bookQuery = `for $i in collection("items")/Item where $i/Section = "Book" return $i/Code`
)

// A node at its in-flight cap sheds a query over the wire as a typed
// NodeError while it still serves writes: only query/fetch load is gated.
func TestServerMaxInflightShedsTyped(t *testing.T) {
	n := startTCPNode(t, "node0", oneSlot)
	if err := n.client.CreateCollection("items::Fcd"); err != nil {
		t.Fatal(err)
	}
	store := func(name string) error {
		doc, err := partix.ParseDocument(name, `<Item><Code>`+name+`</Code></Item>`)
		if err != nil {
			t.Fatal(err)
		}
		return n.client.StoreDocument("items::Fcd", doc)
	}
	if err := store("I1"); err != nil {
		t.Fatal(err)
	}
	n.hold(t)
	_, err := n.client.ExecuteQuery(`collection("items::Fcd")/Item/Code`)
	if err == nil {
		t.Fatal("query served by a node at capacity")
	}
	if !errors.Is(err, wire.ErrNodeOverloaded) {
		t.Fatalf("rejection not ErrNodeOverloaded: %v", err)
	}
	var ne *wire.NodeError
	if !errors.As(err, &ne) || !ne.Overloaded || !strings.Contains(err.Error(), "node at capacity") {
		t.Fatalf("rejection not an overloaded NodeError at capacity: %#v", err)
	}
	if err := store("I2"); err != nil {
		t.Fatalf("ungated op shed: %v", err)
	}
}

// A node that sheds a query surfaces as partix.ErrOverloaded, naming the
// node; a node that merely fails does not.
func TestNodeOverloadIsErrOverloaded(t *testing.T) {
	shedder := startTCPNode(t, "node0", oneSlot)
	plain := startTCPNode(t, "node1", partix.NodeServerOptions{})
	sys := partix.NewSystem(partix.NoNetwork)
	sys.AddNode(shedder.client)
	sys.AddNode(plain.client)
	publishSections(t, sys, map[string]string{"Fcd": "node0", "Frest": "node1"}, nil)

	if _, err := sys.Query(cdQuery); err != nil {
		t.Fatalf("query on a free node: %v", err)
	}
	release := shedder.hold(t)
	_, err := sys.Query(cdQuery)
	if !errors.Is(err, partix.ErrOverloaded) {
		t.Fatalf("shed query does not match ErrOverloaded: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "node0") || !strings.Contains(msg, "node at capacity") {
		t.Fatalf("overload error names neither node nor cause: %v", err)
	}
	release()

	plain.srv.Close()
	_, err = sys.Query(bookQuery)
	if err == nil {
		t.Fatal("query over a downed node succeeded")
	}
	if errors.Is(err, partix.ErrOverloaded) {
		t.Fatalf("plain node failure matched ErrOverloaded: %v", err)
	}
}

// A shedding primary is one more failed copy: the replica answers, and the
// sub-query result names it.
func TestOverloadedPrimaryFailsOverToReplica(t *testing.T) {
	primary := startTCPNode(t, "node0", oneSlot)
	rest := startTCPNode(t, "node1", partix.NodeServerOptions{})
	replica := startTCPNode(t, "node2", partix.NodeServerOptions{})
	sys := partix.NewSystem(partix.NoNetwork)
	for _, n := range []*tcpNode{primary, rest, replica} {
		sys.AddNode(n.client)
	}
	publishSections(t, sys, map[string]string{"Fcd": "node0", "Frest": "node1"},
		map[string][]string{"Fcd": {"node2"}})

	first, err := sys.Query(cdQuery) // the primary is free and answers
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Sub) != 1 || first.Sub[0].Node != "node0" {
		t.Fatalf("sub-queries = %+v, want one answered by node0", first.Sub)
	}
	primary.hold(t)
	res, err := sys.Query(cdQuery)
	if err != nil {
		t.Fatalf("shed primary did not fail over: %v", err)
	}
	if len(res.Items) != 4 || len(res.Items) != len(first.Items) {
		t.Fatalf("failover answer has %d items, want 4", len(res.Items))
	}
	for i, it := range res.Items {
		if got, want := partix.ItemString(it), partix.ItemString(first.Items[i]); got != want {
			t.Fatalf("item %d = %q, want %q", i, got, want)
		}
	}
	if len(res.Sub) != 1 || res.Sub[0].Node != "node2" {
		t.Fatalf("sub-queries = %+v, want one answered by node2", res.Sub)
	}
}

// A one-slot node frees a stream's slot before the stream's last frame,
// so queries sent back to back, each after the whole answer to the one
// before it was read, are never shed, even when they alternate between two
// connections. The node's connections pause after every write, which
// holds a handler that releases its slot only after sending FrameEnd in
// that slot while the next query arrives on the other connection.
func TestOneSlotNodeServesBackToBackQueries(t *testing.T) {
	db, err := partix.OpenEngine(filepath.Join(t.TempDir(), "node0.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	doc, err := partix.ParseDocument("I1", `<Item><Code>I1</Code></Item>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutDocument("items::Fcd", doc); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServerWith(db, nil, oneSlot)
	go srv.Serve(pausingListener{l})
	t.Cleanup(func() { srv.Close() })
	var clients [2]*wire.Client
	for i := range clients {
		if clients[i], err = wire.DialWith(fmt.Sprintf("c%d", i), l.Addr().String(), wire.ClientOptions{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { clients[i].Close() })
	}
	for i := 0; i < 40; i++ {
		items, err := clients[i%2].ExecuteQuery(`collection("items::Fcd")/Item/Code`)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(items) != 1 {
			t.Fatalf("query %d: %d items, want 1", i, len(items))
		}
	}
}

// pausingListener hands out connections that pause after every write.
type pausingListener struct{ net.Listener }

func (l pausingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return pausingConn{c}, nil
}

type pausingConn struct{ net.Conn }

func (c pausingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	time.Sleep(2 * time.Millisecond)
	return n, err
}
