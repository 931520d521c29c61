package wire

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"partix/internal/engine"
)

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
