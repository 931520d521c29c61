package partix_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"partix"
)

// These tests drive node shedding through the public facade over real TCP
// nodes: the sentinel a caller matches is the facade's ErrOverloaded, so
// they live in the external test package.

// tcpNode is one engine served over loopback TCP and the coordinator's
// driver for it.
type tcpNode struct {
	srv    *partix.NodeServer
	client *partix.RemoteNode
}

// startTCPNode serves a fresh engine with srvOpts and dials it as name on
// behalf of tenant. Transport retries are off so a downed node fails fast.
func startTCPNode(t *testing.T, name, tenant string, srvOpts partix.NodeServerOptions) *tcpNode {
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
	srv, err := partix.ServeNodeWith(db, l, nil, srvOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := partix.DialNodeWith(name, l.Addr().String(), partix.NodeClientOptions{
		DialTimeout: time.Second, MaxRetries: -1, Tenant: tenant,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return &tcpNode{srv: srv, client: client}
}

// oneToken is a node quota that admits a tenant's first query and sheds
// the next: one token, effectively no refill.
var oneToken = partix.NodeServerOptions{TenantRate: 0.001, TenantBurst: 1}

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

// A node that sheds a query surfaces as partix.ErrOverloaded, naming the
// node and the tenant; a node that merely fails does not.
func TestNodeOverloadIsErrOverloaded(t *testing.T) {
	shedder := startTCPNode(t, "node0", "alice", oneToken)
	plain := startTCPNode(t, "node1", "alice", partix.NodeServerOptions{})
	sys := partix.NewSystem(partix.NoNetwork)
	sys.AddNode(shedder.client)
	sys.AddNode(plain.client)
	publishSections(t, sys, map[string]string{"Fcd": "node0", "Frest": "node1"}, nil)

	if _, err := sys.Query(cdQuery); err != nil {
		t.Fatalf("first query within the burst: %v", err)
	}
	_, err := sys.Query(cdQuery)
	if !errors.Is(err, partix.ErrOverloaded) {
		t.Fatalf("shed query does not match ErrOverloaded: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "node0") || !strings.Contains(msg, `"alice"`) {
		t.Fatalf("overload error names neither node nor tenant: %v", err)
	}

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
	primary := startTCPNode(t, "node0", "alice", oneToken)
	rest := startTCPNode(t, "node1", "alice", partix.NodeServerOptions{})
	replica := startTCPNode(t, "node2", "alice", partix.NodeServerOptions{})
	sys := partix.NewSystem(partix.NoNetwork)
	for _, n := range []*tcpNode{primary, rest, replica} {
		sys.AddNode(n.client)
	}
	publishSections(t, sys, map[string]string{"Fcd": "node0", "Frest": "node1"},
		map[string][]string{"Fcd": {"node2"}})

	first, err := sys.Query(cdQuery) // spends the primary's only token
	if err != nil {
		t.Fatal(err)
	}
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
