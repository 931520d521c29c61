package wire

// Coverage for the protocol handshake: a peer of any other version gets a
// typed error and a closed connection in both directions, and nothing is
// retried.

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// An old client's request is answered with one version-mismatch Response
// and the server hangs up. That covers a protocol-12 peer too, which
// ships a fetch frame's documents one by one and sends a fetch's names
// unpacked, and a watch request is rejected the same way.
func TestOldClientRejectedByServer(t *testing.T) {
	db := newNodeDB(t, 2)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	if ProtocolVersion != 13 {
		t.Fatalf("protocol version %d, want 13: fetch frames carry one payload", ProtocolVersion)
	}
	for _, op := range []Op{OpPing, OpQueryStream, OpFetchStream, OpWatch} {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		req := &Request{Op: op, Query: countQuery, Collection: "c", Proto: ProtocolVersion - 1,
			Where: `for $i in collection("c")/Item where $i/Code = "I1" return $i`}
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Proto != ProtocolVersion || !strings.Contains(resp.Err, "protocol version mismatch") {
			t.Fatalf("op %d: old client answered %+v, want a version-mismatch error", op, resp)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if err := dec.Decode(&resp); !errors.Is(err, io.EOF) {
			t.Fatalf("op %d: second read = %v, want the connection closed after one rejection", op, err)
		}
	}
}

// otherVersionServer answers every request with reply's message, counting
// requests and connections the client closed.
func otherVersionServer(t *testing.T, reply func(*Request) any) (addr string, requests, hangups *atomic.Int32) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	requests, hangups = new(atomic.Int32), new(atomic.Int32)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
				for {
					var req Request
					if err := dec.Decode(&req); err != nil {
						hangups.Add(1)
						return
					}
					requests.Add(1)
					if enc.Encode(reply(&req)) != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), requests, hangups
}

// A server of another version fails the dial-time ping with a typed
// error; one that stops framing fails the stream the same way. Either
// way the client closes the connection and retries nothing.
func TestOtherVersionServerRejectedByClient(t *testing.T) {
	retrying := ClientOptions{MaxRetries: 3, RetryBackoff: time.Millisecond}
	waitHangup := func(hangups *atomic.Int32) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); hangups.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("client kept the mismatched connection open")
			}
		}
	}

	addr, requests, hangups := otherVersionServer(t, func(*Request) any {
		return &Response{Bool: true, Proto: ProtocolVersion - 1}
	})
	_, err := DialWith("old", addr, retrying)
	var pm *ErrProtocolMismatch
	if !errors.As(err, &pm) || pm.Peer != ProtocolVersion-1 || pm.Node != "old" {
		t.Fatalf("dial error = %v, want ErrProtocolMismatch naming version %d", err, ProtocolVersion-1)
	}
	waitHangup(hangups)
	if n := requests.Load(); n != 1 {
		t.Fatalf("mismatched server saw %d requests, want 1 (no retry)", n)
	}

	// Handshake passes, but result requests are answered with a Response.
	addr, requests, hangups = otherVersionServer(t, func(*Request) any {
		return &Response{Bool: true, Proto: ProtocolVersion}
	})
	c := dialStream(t, addr, retrying)
	if _, err := c.ExecuteQuery(countQuery); !errors.As(err, &pm) {
		t.Fatalf("stream error = %v, want ErrProtocolMismatch", err)
	}
	waitHangup(hangups)
	if n := requests.Load(); n != 2 { // the dial-time ping + one query
		t.Fatalf("server saw %d requests, want 2 (no retry)", n)
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Fatalf("mismatch was retried: %+v", st)
	}
}
