package wire

// Fault-injection coverage for the wire layer: a controllable TCP proxy
// (faultProxy) sits between client and server and can sever connections,
// black-hole traffic, delay it, or cut the response stream mid-message.
// The tests drive the client's reconnect/retry/deadline machinery and the
// server's panic recovery, idle reaping and graceful drain through real
// sockets.

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/storage"
	"partix/internal/xmltree"
)

// faultProxy forwards TCP traffic to dest with switchable fault modes.
type faultProxy struct {
	t    *testing.T
	l    net.Listener
	dest string

	mu        sync.Mutex
	pairs     map[net.Conn]net.Conn // client-side conn → server-side conn
	blackhole bool                  // swallow traffic in both directions
	delay     time.Duration         // added before forwarding each chunk
	cut       int64                 // server→client bytes until a one-shot cut; -1 = off
	closed    bool
}

func newFaultProxy(t *testing.T, dest string) *faultProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{t: t, l: l, dest: dest, pairs: map[net.Conn]net.Conn{}, cut: -1}
	go p.acceptLoop()
	t.Cleanup(p.close)
	return p
}

func (p *faultProxy) addr() string { return p.l.Addr().String() }

func (p *faultProxy) acceptLoop() {
	for {
		cl, err := p.l.Accept()
		if err != nil {
			return
		}
		srv, err := net.Dial("tcp", p.dest)
		if err != nil {
			cl.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			cl.Close()
			srv.Close()
			return
		}
		p.pairs[cl] = srv
		p.mu.Unlock()
		go p.pipe(cl, srv, false)
		go p.pipe(srv, cl, true)
	}
}

// pipe forwards src → dst, applying the active fault mode per chunk. The
// cut counter only arms the server→client direction, so a cut lands in
// the middle of a response message.
func (p *faultProxy) pipe(src, dst net.Conn, serverToClient bool) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			blackhole, delay := p.blackhole, p.delay
			cut := int64(-1)
			if serverToClient {
				cut = p.cut
			}
			p.mu.Unlock()
			if !blackhole {
				if delay > 0 {
					time.Sleep(delay)
				}
				if cut >= 0 && int64(n) >= cut {
					dst.Write(buf[:cut])
					p.mu.Lock()
					p.cut = -1
					p.mu.Unlock()
					src.Close()
					dst.Close()
					return
				}
				if cut >= 0 {
					p.mu.Lock()
					p.cut -= int64(n)
					p.mu.Unlock()
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					src.Close()
					return
				}
			}
		}
		if err != nil {
			dst.Close()
			return
		}
	}
}

// sever closes every live proxied connection; new connections still work.
func (p *faultProxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for cl, srv := range p.pairs {
		cl.Close()
		srv.Close()
	}
	p.pairs = map[net.Conn]net.Conn{}
}

func (p *faultProxy) setBlackhole(on bool) {
	p.mu.Lock()
	p.blackhole = on
	p.mu.Unlock()
}

func (p *faultProxy) setDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// cutResponseAfter arms a one-shot mid-message cut: the next response
// stream is severed after n more bytes reach the client.
func (p *faultProxy) cutResponseAfter(n int64) {
	p.mu.Lock()
	p.cut = n
	p.mu.Unlock()
}

// close kills the listener and every connection: the destination becomes
// unreachable through the proxy.
func (p *faultProxy) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.l.Close()
	p.sever()
}

func newNodeDB(t *testing.T, docs int) *engine.DB {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.Store().CreateCollection("c")
	for i := 0; i < docs; i++ {
		doc := xmltree.MustParseString(fmt.Sprintf("d%02d", i),
			fmt.Sprintf("<Item><Code>I%d</Code></Item>", i))
		if err := db.PutDocument("c", doc); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// startServerOn serves db on addr (use "127.0.0.1:0" for an ephemeral
// port) and returns the server plus its bound address.
func startServerOn(t *testing.T, db *engine.DB, addr string, opts ServerOptions) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(db, nil, opts)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

const countQuery = `count(collection("c")/Item)`

func mustCount(t *testing.T, c *Client, want float64) {
	t.Helper()
	items, err := c.ExecuteQuery(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].(float64) != want {
		t.Fatalf("count = %v, want %v", items, want)
	}
}

// A client completes a query successfully after its server connection
// was severed and the server re-established on the same address.
func TestReconnectAfterServerRestart(t *testing.T) {
	db := newNodeDB(t, 3)
	srv1, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	c, err := DialWith("n0", addr, ClientOptions{
		MaxRetries: 5, RetryBackoff: 20 * time.Millisecond, RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mustCount(t, c, 3)

	// Kill the server: the client's pooled connection is now dead.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	startServerOn(t, db, addr, ServerOptions{})

	mustCount(t, c, 3)
	st := c.Stats()
	if st.Dials < 2 {
		t.Fatalf("expected a redial, stats = %+v", st)
	}
	if st.TransportErrors == 0 {
		t.Fatalf("stale connection use not counted, stats = %+v", st)
	}
}

// The request deadline fires on a hung link instead of blocking forever,
// and the client recovers once the link heals.
func TestRequestTimeoutOnHungLink(t *testing.T) {
	db := newNodeDB(t, 3)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	p := newFaultProxy(t, addr)
	c, err := DialWith("n0", p.addr(), ClientOptions{
		RequestTimeout: 150 * time.Millisecond, MaxRetries: 1, RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mustCount(t, c, 3)

	p.setBlackhole(true)
	start := time.Now()
	if _, err := c.ExecuteQuery(countQuery); err == nil {
		t.Fatal("query over a black-holed link succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline did not fire", elapsed)
	}
	p.setBlackhole(false)

	mustCount(t, c, 3)
	if st := c.Stats(); st.TransportErrors == 0 || st.Retries == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A delayed link slows requests down but does not break them.
func TestDelayedLink(t *testing.T) {
	db := newNodeDB(t, 3)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	p := newFaultProxy(t, addr)
	c, err := DialWith("n0", p.addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	p.setDelay(30 * time.Millisecond)
	start := time.Now()
	mustCount(t, c, 3)
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delay not applied, query took %v", elapsed)
	}
}

// A panicking request yields an error frame while the server keeps
// serving subsequent requests — on the same connection and on new ones.
func TestPanickingRequestKeepsServing(t *testing.T) {
	db := newNodeDB(t, 3)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(db, nil, ServerOptions{})
	var fetchPanics atomic.Int32
	srv.hook = func(req *Request) {
		if req.Op == OpQueryStream && req.Query == "boom" {
			panic("injected evaluator panic")
		}
		if req.Op == OpFetchStream && req.Collection == "boom" {
			fetchPanics.Add(1)
			panic("injected fetch panic")
		}
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c, err := Dial("n0", l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	_, qerr := c.ExecuteQuery("boom")
	if qerr == nil || !strings.Contains(qerr.Error(), "internal error") {
		t.Fatalf("panic not surfaced as error response: %v", qerr)
	}
	// Same client (and its pooled connection) still works.
	mustCount(t, c, 3)
	if st := c.Stats(); st.NodeErrors == 0 {
		t.Fatalf("panic response not counted as node error: %+v", st)
	}
	// A panicking fetch is a node error on a connection that stays
	// usable too, so the client neither retries it nor redials.
	before := c.Stats()
	var ne *NodeError
	if _, ferr := c.FetchCollection("boom"); !errors.As(ferr, &ne) || !strings.Contains(ferr.Error(), "internal error") {
		t.Fatalf("fetch panic not surfaced as a node error: %v", ferr)
	}
	mustCount(t, c, 3)
	if st := c.Stats(); fetchPanics.Load() != 1 || st.Retries != before.Retries || st.Dials != before.Dials ||
		st.TransportErrors != before.TransportErrors || st.NodeErrors != before.NodeErrors+1 {
		t.Fatalf("fetch panic ran the hook %d times, stats %+v after %+v", fetchPanics.Load(), st, before)
	}
	// Fresh connections still work too: the process survived.
	c2, err := Dial("n1", l.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("server stopped accepting after panic: %v", err)
	}
	t.Cleanup(func() { c2.Close() })
	mustCount(t, c2, 3)
}

// A response severed mid-message desyncs that connection only: the client
// drops it and retries on a fresh one.
func TestMidMessageCutRetries(t *testing.T) {
	db := newNodeDB(t, 3)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	p := newFaultProxy(t, addr)
	c, err := DialWith("n0", p.addr(), ClientOptions{
		MaxRetries: 2, RetryBackoff: 10 * time.Millisecond, RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mustCount(t, c, 3)

	p.cutResponseAfter(8)
	mustCount(t, c, 3)
	if st := c.Stats(); st.TransportErrors == 0 || st.Retries == 0 {
		t.Fatalf("cut did not exercise the retry path: %+v", st)
	}
}

// cluster failover tries the replica when the primary's link dies, and
// reports the replica as the serving node.
func TestClusterFailoverWhenPrimaryLinkDies(t *testing.T) {
	db1, db2 := newNodeDB(t, 3), newNodeDB(t, 3)
	_, addr1 := startServerOn(t, db1, "127.0.0.1:0", ServerOptions{})
	_, addr2 := startServerOn(t, db2, "127.0.0.1:0", ServerOptions{})
	p := newFaultProxy(t, addr1)

	fastFail := ClientOptions{
		MaxRetries: -1, DialTimeout: 500 * time.Millisecond, RequestTimeout: 500 * time.Millisecond,
	}
	primary, err := DialWith("primary", p.addr(), fastFail)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	replica, err := DialWith("replica", addr2, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })

	subs := []cluster.SubQuery{{
		Fragment: "f", Node: primary, Replicas: []cluster.Driver{replica}, Query: countQuery,
	}}
	res, err := cluster.Execute(subs, cluster.NoNetwork, 1, cluster.NewBufferSink(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sub[0].Node != "primary" {
		t.Fatalf("served by %q before the fault", res.Sub[0].Node)
	}

	p.close() // primary unreachable: pooled conn severed, redials refused
	sink := cluster.NewBufferSink(1)
	res, err = cluster.Execute(subs, cluster.NoNetwork, 1, sink)
	if err != nil {
		t.Fatalf("failover did not kick in: %v", err)
	}
	if res.Sub[0].Node != "replica" {
		t.Fatalf("served by %q, want replica", res.Sub[0].Node)
	}
	if sink.Parts[0][0].(float64) != 3 {
		t.Fatalf("failover answer = %v", sink.Parts[0])
	}
}

// The server reaps idle connections; the client reconnects transparently.
func TestIdleTimeoutTransparentReconnect(t *testing.T) {
	db := newNodeDB(t, 3)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{IdleTimeout: 50 * time.Millisecond})
	c, err := DialWith("n0", addr, ClientOptions{
		MaxRetries: 2, RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mustCount(t, c, 3)

	time.Sleep(250 * time.Millisecond) // well past the idle deadline
	mustCount(t, c, 3)
	if st := c.Stats(); st.Dials < 2 {
		t.Fatalf("no reconnect after idle reap: %+v", st)
	}
}

// Close drains: an in-flight request's response is still delivered.
func TestGracefulDrainDeliversInFlightResponse(t *testing.T) {
	db := newNodeDB(t, 3)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(db, nil, ServerOptions{DrainTimeout: 2 * time.Second})
	srv.hook = func(req *Request) {
		if req.Op == OpStats {
			time.Sleep(200 * time.Millisecond)
		}
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c, err := DialWith("n0", l.Addr().String(), ClientOptions{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	type outcome struct {
		st  storage.Stats
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, err := c.CollectionStats("c")
		done <- outcome{st, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the hook
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("drain blocked for %v", elapsed)
	}
	o := <-done
	if o.err != nil {
		t.Fatalf("in-flight request lost during drain: %v", o.err)
	}
	if o.st.Documents != 3 {
		t.Fatalf("stats = %+v", o.st)
	}
	// The server is gone now: new requests must fail.
	if _, err := c.CollectionStats("c"); err == nil {
		t.Fatal("request succeeded after Close")
	}
}

// The connection pool lets concurrent sub-queries overlap instead of
// serializing behind one gob stream.
func TestPoolOverlapsConcurrentRequests(t *testing.T) {
	db := newNodeDB(t, 3)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(db, nil, ServerOptions{})
	srv.hook = func(req *Request) {
		if req.Op == OpQueryStream {
			time.Sleep(100 * time.Millisecond)
		}
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c, err := DialWith("n0", l.Addr().String(), ClientOptions{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.ExecuteQuery(countQuery)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Serial execution would need 4×100ms; the pool overlaps them.
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("4 concurrent queries took %v, pool is serializing", elapsed)
	}
}

// CheckCollection distinguishes absence from unreachability where the
// Driver-interface HasCollection cannot.
func TestCheckCollectionDistinguishesTransportFailure(t *testing.T) {
	db := newNodeDB(t, 3)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	p := newFaultProxy(t, addr)
	c, err := DialWith("n0", p.addr(), ClientOptions{
		MaxRetries: 1, RetryBackoff: 10 * time.Millisecond,
		DialTimeout: 300 * time.Millisecond, RequestTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if ok, err := c.CheckCollection("c"); err != nil || !ok {
		t.Fatalf("CheckCollection(c) = %v, %v", ok, err)
	}
	if ok, err := c.CheckCollection("ghost"); err != nil || ok {
		t.Fatalf("CheckCollection(ghost) = %v, %v", ok, err)
	}
	p.close()
	if _, err := c.CheckCollection("c"); err == nil {
		t.Fatal("unreachable node reported a definite answer")
	}
	if c.HasCollection("c") {
		t.Fatal("HasCollection true on unreachable node")
	}
	if st := c.Stats(); st.TransportErrors == 0 {
		t.Fatalf("transport failure not counted: %+v", st)
	}
}
