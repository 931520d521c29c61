package wire

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"partix/internal/engine"
	"partix/internal/xmltree"
)

// startLimitedServer runs a server with admission options and returns a
// dialer for per-tenant clients.
func startLimitedServer(t *testing.T, opts ServerOptions) func(tenant string) *Client {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(db, nil, opts)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return func(tenant string) *Client {
		c, err := DialWith("remote0", l.Addr().String(), ClientOptions{
			RequestTimeout: time.Second, Tenant: tenant,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

func TestServerTenantQuotaShedsTyped(t *testing.T) {
	dial := startLimitedServer(t, ServerOptions{TenantRate: 0.001, TenantBurst: 2})
	alice := dial("alice")
	if err := alice.CreateCollection("items"); err != nil {
		t.Fatal(err)
	}
	err := alice.StoreDocument("items",
		xmltree.MustParseString("i1", `<Item><Code>I1</Code></Item>`))
	if err != nil {
		t.Fatal(err)
	}

	q := `collection("items")/Item/Code`
	for i := 0; i < 2; i++ {
		if _, err := alice.ExecuteQuery(q); err != nil {
			t.Fatalf("query %d within burst: %v", i, err)
		}
	}
	_, err = alice.ExecuteQuery(q)
	if err == nil {
		t.Fatal("exhausted tenant served")
	}
	if !errors.Is(err, ErrNodeOverloaded) {
		t.Fatalf("rejection not ErrNodeOverloaded: %v", err)
	}
	var ne *NodeError
	if !errors.As(err, &ne) || !ne.Overloaded {
		t.Fatalf("rejection not a NodeError with Overloaded: %#v", err)
	}
	if !strings.Contains(err.Error(), `"alice"`) {
		t.Fatalf("rejection does not name the tenant: %v", err)
	}
	// Writes and metadata ops are not gated — only query/fetch load is.
	err = alice.StoreDocument("items",
		xmltree.MustParseString("i2", `<Item><Code>I2</Code></Item>`))
	if err != nil {
		t.Fatalf("ungated op shed: %v", err)
	}
	// Another tenant has its own bucket.
	if _, err := dial("bob").ExecuteQuery(q); err != nil {
		t.Fatalf("unrelated tenant shed: %v", err)
	}
}

// TestServerMaxInflightAdmit exercises the slot accounting directly: the
// handle loop calls admit/release around every gated operation.
func TestServerMaxInflightAdmit(t *testing.T) {
	db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := NewServerWith(db, nil, ServerOptions{MaxInflight: 1})
	t.Cleanup(func() { srv.Close() })

	release, overload := srv.admit(&Request{Op: OpQueryStream})
	if overload != "" {
		t.Fatalf("first admit rejected: %s", overload)
	}
	_, overload = srv.admit(&Request{Op: OpQueryStream})
	if overload == "" {
		t.Fatal("second admit passed a full node")
	}
	if !strings.HasPrefix(overload, overloadedPrefix) {
		t.Fatalf("rejection lacks the overloaded prefix: %q", overload)
	}
	// Ungated operations pass regardless of load.
	if _, o := srv.admit(&Request{Op: OpPing}); o != "" {
		t.Fatalf("ping gated: %s", o)
	}
	release()
	release2, overload := srv.admit(&Request{Op: OpFetchStream})
	if overload != "" {
		t.Fatalf("admit after release rejected: %s", overload)
	}
	release2()
}

func TestNodeErrorOverloadedMatching(t *testing.T) {
	plain := &NodeError{Node: "n1", Msg: "boom"}
	if errors.Is(plain, ErrNodeOverloaded) {
		t.Fatal("plain node error matched ErrNodeOverloaded")
	}
	over := &NodeError{Node: "n1", Msg: "overloaded: node at capacity", Overloaded: true}
	if !errors.Is(over, ErrNodeOverloaded) {
		t.Fatal("overloaded node error did not match")
	}
}
