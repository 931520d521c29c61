package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xquery"
)

// ServerOptions tune a node server's connection hygiene and streaming
// behaviour. The zero value gives production defaults; see the field
// comments.
type ServerOptions struct {
	// IdleTimeout closes a connection that sends no request for this
	// long, so dead peers cannot pin server resources forever. Clients
	// reconnect transparently. 0 disables the idle deadline. While a
	// result stream is being written it also bounds each frame write, so
	// a peer that stops reading cannot pin a handler goroutine.
	IdleTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight requests to
	// finish before forcing their connections closed. 0 means 5s;
	// negative closes immediately.
	DrainTimeout time.Duration
	// BatchItems caps how many items (or documents) one streamed frame
	// carries. 0 means 256.
	BatchItems int
	// MaxFrameBytes flushes a streamed frame early once its payload
	// reaches this many bytes, bounding per-frame memory on both peers
	// regardless of item sizes. 0 means 1 MiB.
	MaxFrameBytes int
	// MaxMessageBytes bounds one incoming gob message. A peer declaring
	// a larger message is answered with an error response and
	// disconnected before the decoder allocates for it. 0 means
	// DefaultMaxMessageBytes (64 MiB).
	MaxMessageBytes int64
	// Recorder, when non-nil, receives a QueryRecord for every query the
	// server serves (subject to the recorder's tail sampling). partixd feeds it to the /debug/queries endpoint.
	Recorder *obs.FlightRecorder
	// Profiler, when non-nil, is fed every served query's workload keys
	// (paths, predicates, per node-collection). partixd feeds it to the
	// /debug/workload endpoint.
	Profiler *obs.WorkloadProfiler
	// MaxInflight caps how many query/fetch operations the node serves at
	// once; excess requests are rejected immediately with an
	// "overloaded: "-prefixed error (clients surface it as a NodeError
	// matching ErrNodeOverloaded and never retry it). Mutations and
	// control operations are not gated. 0 disables the cap.
	MaxInflight int
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.BatchItems <= 0 {
		o.BatchItems = 256
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = 1 << 20
	}
	return o
}

// Server exposes one engine.DB over the wire protocol. A panic while
// serving a request is confined to that request: the client receives an
// error Response and the server keeps serving.
type Server struct {
	db   *engine.DB
	log  obs.Logger
	opts ServerOptions

	// hook is a test seam invoked before each dispatch; fault-injection
	// tests use it to simulate evaluator panics and slow requests, and
	// admission tests to keep an admitted stream in its slot.
	hook func(*Request)
	// tamper is a test seam invoked on every frame of a result stream
	// before it is sent; corruption tests flip payload bytes with it.
	tamper func(*Frame)

	// admission state: the inflight count for MaxInflight.
	admitMu  sync.Mutex
	inflight int

	handlers sync.WaitGroup

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
}

// NewServer wraps db with default options. logger may be nil to disable
// logging.
func NewServer(db *engine.DB, logger *log.Logger) *Server {
	return NewServerWith(db, logger, ServerOptions{})
}

// NewServerWith wraps db with explicit connection-hygiene options. The
// *log.Logger signature is kept for existing callers and CLI flags; it
// is adapted to the leveled obs.Logger internally (nil disables
// logging). Servers wanting structured output use NewServerLogger.
func NewServerWith(db *engine.DB, logger *log.Logger, opts ServerOptions) *Server {
	return NewServerLogger(db, obs.FromStd(logger, obs.LevelDebug), opts)
}

// NewServerLogger wraps db logging through any obs.Logger.
func NewServerLogger(db *engine.DB, logger obs.Logger, opts ServerOptions) *Server {
	if logger == nil {
		logger = obs.Nop()
	}
	return &Server{db: db, log: logger, opts: opts.withDefaults(),
		conns: map[net.Conn]struct{}{}}
}

// admit applies the node's admission policy to one request, returning
// the release func and "" on success, or the overloaded error text. The
// returned error always carries the overloadedPrefix so clients can type
// it. Only the result streams a coordinator fans queries out over are
// gated: mutations, pings and telemetry pulls always pass — shedding a
// health probe or a write whose outcome the client cannot verify helps
// nobody.
func (s *Server) admit(req *Request) (func(), string) {
	if !req.Op.streams() || s.opts.MaxInflight <= 0 {
		return func() {}, ""
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.inflight >= s.opts.MaxInflight {
		return nil, overloadedPrefix + fmt.Sprintf("node at capacity (%d operations in flight)", s.inflight)
	}
	s.inflight++
	return func() {
		s.admitMu.Lock()
		s.inflight--
		s.admitMu.Unlock()
	}, ""
}

// Serve accepts connections until the listener is closed. It blocks.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		raw, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		conn := net.Conn(&countingConn{Conn: raw, in: obs.WireServerBytesIn, out: obs.WireServerBytesOut})
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		obs.WireServerConns.Add(1)
		go s.handle(conn)
	}
}

// Close stops the listener, lets in-flight requests drain for up to
// DrainTimeout (their responses are still delivered), then closes every
// remaining connection. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	// A read deadline in the past aborts handlers idling in Decode while
	// leaving writes — in-flight responses — unaffected.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	if s.opts.DrainTimeout > 0 {
		done := make(chan struct{})
		go func() {
			s.handlers.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(s.opts.DrainTimeout):
			s.log.Log(obs.LevelWarn, "wire: drain timeout, forcing connections closed",
				"timeout", s.opts.DrainTimeout)
		}
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer s.handlers.Done()
	defer func() {
		// A panic outside dispatch (protocol decode internals) must not
		// take the whole process down; drop just this connection.
		if r := recover(); r != nil {
			obs.WireServerPanics.Inc()
			s.log.Log(obs.LevelError, "wire: connection panicked",
				"remote", conn.RemoteAddr(), "panic", r, "stack", string(debug.Stack()))
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		obs.WireServerConns.Add(-1)
	}()
	dec := gob.NewDecoder(newLimitReader(conn, s.opts.MaxMessageBytes))
	enc := gob.NewEncoder(conn)
	origins := new(engine.Origins) // one per connection: its streams run one at a time
	send := func(f *Frame) error { return s.sendFrame(enc, conn, f) }
	for {
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// Idle deadline expired or Close is draining: a quiet,
				// expected disconnect either way.
				return
			}
			var tooBig *ErrMessageTooBig
			if errors.As(err, &tooBig) {
				// The oversize message was never consumed, so the stream
				// is desynced: answer the pending request with an error
				// (best effort) and drop the connection.
				s.log.Log(obs.LevelWarn, "wire: oversize message",
					"remote", conn.RemoteAddr(), "err", err)
				enc.Encode(&Response{Err: err.Error(), Proto: ProtocolVersion})
				return
			}
			if !errors.Is(err, io.EOF) {
				s.log.Log(obs.LevelWarn, "wire: decode failed",
					"remote", conn.RemoteAddr(), "err", err)
			}
			return
		}
		obs.WireServerRequests.Inc()
		if req.Proto != ProtocolVersion {
			// The handshake check: nothing is served to a peer of another
			// version, and the connection does not outlive the rejection.
			s.log.Log(obs.LevelWarn, "wire: protocol version mismatch",
				"remote", conn.RemoteAddr(), "peer", req.Proto, "want", ProtocolVersion)
			enc.Encode(&Response{
				Err:   fmt.Sprintf("wire: protocol version mismatch: peer speaks %d, this node speaks %d", req.Proto, ProtocolVersion),
				Proto: ProtocolVersion,
			})
			return
		}
		if req.Op == OpWatch {
			s.serveWatch(conn, enc, dec)
			return
		}
		var err error
		release, overload := s.admit(&req)
		switch {
		case overload != "":
			// Shed before any work. Only streams are gated, so the
			// rejection travels as FrameErr and the connection stays
			// usable — the client just saw a typed error.
			err = send(&Frame{Kind: FrameErr, Err: overload, TraceID: req.TraceID})
		case req.Op.streams():
			// The op's failure ends the stream with FrameErr on a usable
			// connection; an error from send is the transport's and drops it
			// (a client abandons a stream by closing its connection).
			// The slot is released before the terminal frame goes out, so
			// a client that has read the whole answer never finds it taken.
			var failure error
			if failure, err = s.stream(&req, origins, send, release); failure != nil && err == nil {
				err = send(&Frame{Kind: FrameErr, Err: failure.Error(), TraceID: req.TraceID})
			}
		default:
			resp := s.dispatch(&req)
			resp.Proto = ProtocolVersion
			err = enc.Encode(resp)
			release()
		}
		if err != nil {
			s.log.Log(obs.LevelWarn, "wire: encode failed",
				"remote", conn.RemoteAddr(), "err", err)
			return
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
	}
}

// sendFrame writes one frame, bounding the write by the idle timeout so
// a peer that stopped reading cannot pin the handler forever.
func (s *Server) sendFrame(enc *gob.Encoder, conn net.Conn, f *Frame) error {
	if s.opts.IdleTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	if err := enc.Encode(f); err != nil {
		return err
	}
	obs.WireServerFrames.Inc()
	return nil
}

// watchWriteTimeout bounds one FrameBumps write. A coordinator that stops
// reading its watch loses it (the connection is closed) instead of
// stalling the node's writers; it then plans without this node's
// statistics until it subscribes again.
const watchWriteTimeout = 2 * time.Second

// serveWatch serves an OpWatch connection: it subscribes to the engine's
// commits, sends the first FrameBumps, and then only waits for the
// connection to end, the peer closing it or Close setting a past read
// deadline. The frames are written by the committing writers themselves
// (watchConn.bump), so each is on the wire before its write is
// acknowledged.
func (s *Server) serveWatch(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder) {
	w := &watchConn{conn: conn, enc: enc, pending: map[string]uint64{}}
	defer s.db.OnCommit(w.bump)()
	if !w.flush(true) {
		return
	}
	// The idle deadline does not apply to a watch, but Close's must: it is
	// set after closed, so either it lands after this or closed is seen.
	conn.SetReadDeadline(time.Time{})
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	var req Request
	dec.Decode(&req) // the peer sends nothing more
}

// watchConn coalesces one watch's commit reports: a writer records its
// generation in pending and then flushes, and a flush sends everything
// pending in one frame, so writers that commit while a frame is being
// written share the next one.
type watchConn struct {
	conn net.Conn
	enc  *gob.Encoder

	sendMu sync.Mutex // held across a flush's write

	mu      sync.Mutex
	pending map[string]uint64
}

// bump is the engine's commit callback.
func (w *watchConn) bump(collection string, gen uint64) {
	w.mu.Lock()
	if gen > w.pending[collection] {
		w.pending[collection] = gen
	}
	w.mu.Unlock()
	w.flush(false)
}

// flush sends what is pending, or, with always, a frame even when nothing
// is. A failed write closes the connection. When flush returns, every
// generation pending when it was called is on the wire or the connection
// is closed.
func (w *watchConn) flush(always bool) bool {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	w.mu.Lock()
	var bumps []Bump
	for c, g := range w.pending {
		bumps = append(bumps, Bump{Collection: c, Generation: g})
	}
	clear(w.pending)
	w.mu.Unlock()
	if len(bumps) == 0 && !always {
		return true
	}
	w.conn.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
	if err := w.enc.Encode(&Frame{Kind: FrameBumps, Bumps: bumps}); err != nil {
		w.conn.Close()
		return false
	}
	return true
}

// sendFailure marks an error from send flowing back out through the op:
// the stream ends there, with no FrameErr after it.
type sendFailure struct{ err error }

func (f *sendFailure) Error() string { return f.err.Error() }

// stream is the node side of every result stream, whoever receives it (a
// connection's handler, a LocalNode in process): it runs the op and hands
// its frames to send in order, FrameEnd last. A panic in the op is
// confined to the stream as its failure. done, when non-nil, is called
// once the op has finished, before FrameEnd is sent and before stream
// returns a failure for the caller to send as FrameErr. It returns the
// op's failure, for the caller to report, or the error send returned.
func (s *Server) stream(req *Request, origins *engine.Origins, send func(*Frame) error, done func()) (failure, sendErr error) {
	start, decodedBefore := time.Now(), s.decodedNow()
	if tamper := s.tamper; tamper != nil {
		sendFrame := send
		send = func(f *Frame) error {
			tamper(f)
			return sendFrame(f)
		}
	}
	var q queryRun
	end, err := func() (end *Frame, err error) {
		defer func() {
			if r := recover(); r != nil {
				obs.WireServerPanics.Inc()
				s.log.Log(obs.LevelError, "wire: panic serving stream",
					"op", req.Op, "panic", r, "stack", string(debug.Stack()))
				err = fmt.Errorf("wire: internal error serving request: %v", r)
			}
		}()
		if s.hook != nil {
			s.hook(req)
		}
		if req.Op == OpFetchStream {
			return s.streamFetch(req, send)
		}
		return s.streamQuery(req, origins, &q, send)
	}()
	if req.Op == OpQueryStream {
		s.recordQuery(req, q.prep, time.Since(start), q.total, q.shipped, s.decodedDelta(decodedBefore), err)
	}
	if done != nil {
		done()
	}
	if err == nil {
		return nil, send(end)
	}
	var sf *sendFailure
	if errors.As(err, &sf) {
		return nil, sf.err
	}
	return err, nil
}

// queryRun is what a query stream tells the flight recorder (recordQuery).
type queryRun struct {
	prep           *engine.Prepared // nil: the text did not parse
	total, shipped int
}

// streamQuery evaluates the query and hands the result to send as bounded
// FrameItems batches, returning the last batch as the FrameEnd. Compiled
// queries stream straight out of the engine's operator pipeline, so the
// node never materializes the full result; only queries outside the
// compiled subset still do. A traced request (req.Trace) runs exactly the
// same way; its step timings travel home in the FrameEnd trailer. The
// text is prepared through the engine's cache (engine.DB.Prepare), so a
// repeated sub-query is parsed and compiled once.
func (s *Server) streamQuery(req *Request, origins *engine.Origins, q *queryRun, send func(*Frame) error) (*Frame, error) {
	prep, spans, err := s.db.PrepareTraced(req.Query, req.Trace)
	if err != nil {
		return nil, err
	}
	q.prep = prep
	// One payload and one record encoder for the whole stream, the payload
	// reset once send returns (gob wrote it out, a LocalNode copied it);
	// 1 KiB spares a small answer the payload's growth from nothing.
	w := itemWriter{payload: make([]byte, 0, 1<<10), origins: origins}
	var serialize time.Duration // time inside the yield callback: encoding and sending frames
	execStart := time.Now()
	q.total, err = s.db.StreamPrepared(prep, origins, func(items xquery.Seq) error {
		yieldStart := time.Now()
		defer func() { serialize += time.Since(yieldStart) }()
		for _, it := range items {
			if err := w.add(it); err != nil {
				return err
			}
			if w.count >= s.opts.BatchItems || len(w.payload) >= s.opts.MaxFrameBytes {
				if err := send(&Frame{Kind: FrameItems, Count: w.count, Payload: w.payload}); err != nil {
					return &sendFailure{err: err}
				}
				q.shipped += len(w.payload)
				w.reset()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	q.shipped += len(w.payload)
	end := &Frame{Kind: FrameEnd, Count: w.count, Payload: w.payload, Total: q.total}
	if req.Trace {
		end.Trailer = &Trailer{Spans: append(spans,
			obs.Span{Name: "execute", Detail: fmt.Sprintf("items=%d", q.total), Duration: time.Since(execStart) - serialize},
			obs.Span{Name: "serialize", Duration: serialize})}
	}
	return end, nil
}

// streamFetch hands the documents a fetch selects (engine.DB.Fetch, by
// req.Names and req.Where, a chunk at a time) to send as bounded FrameDocs
// batches, returning the last batch as the FrameEnd. A frame's records are
// kept as Fetch hands them over and written into the frame's one payload
// when it is sent (docWriter): verbatim, or, with req.Keep, decoded under
// the projection together — which validates every byte as a whole decode
// does — and re-encoded by the stream's one record encoder. The
// projection, like the where filter, is parsed once per distinct text
// (engine.DB.Projection).
func (s *Server) streamFetch(req *Request, send func(*Frame) error) (*Frame, error) {
	names, err := splitNames(req.Names)
	if err != nil {
		return nil, err
	}
	w := &docWriter{batch: s.opts.BatchItems, maxBytes: s.opts.MaxFrameBytes}
	if req.Keep != "" {
		if w.keep, err = s.db.Projection(req.Keep); err != nil {
			return nil, err
		}
	}
	err = s.db.Fetch(req.Collection, names, req.Where, func(name string, raw []byte) error {
		if !w.add(name, raw) {
			return nil
		}
		f, err := w.frame(FrameDocs)
		if err != nil {
			return err
		}
		if err := send(f); err != nil {
			return &sendFailure{err: err}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	end, err := w.frame(FrameEnd)
	if err != nil {
		return nil, err
	}
	end.Total = w.total
	return end, nil
}

// dispatch serves one request. A panic anywhere below (a malformed query
// tripping an evaluator edge case, say) is recovered into an error
// Response so one bad request cannot crash the node.
func (s *Server) dispatch(req *Request) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			obs.WireServerPanics.Inc()
			s.log.Log(obs.LevelError, "wire: panic serving request",
				"op", req.Op, "panic", r, "stack", string(debug.Stack()))
			resp = &Response{Err: fmt.Sprintf("wire: internal error serving request: %v", r)}
		}
	}()
	if s.hook != nil {
		s.hook(req)
	}
	resp = &Response{}
	fail := func(err error) *Response {
		resp.Err = err.Error()
		return resp
	}
	switch req.Op {
	case OpPing:
		resp.Bool = true
	case OpCreateCollection:
		if err := s.db.Store().CreateCollection(req.Collection); err != nil {
			return fail(err)
		}
	case OpStoreDocument:
		doc, err := storage.DecodeDocument(req.DocName, req.DocData)
		if err != nil {
			return fail(err)
		}
		if err := s.db.PutDocument(req.Collection, doc); err != nil {
			return fail(err)
		}
	case OpStats:
		st, err := s.db.CollectionStats(req.Collection)
		if err != nil {
			return fail(err)
		}
		resp.Stats = st
		if req.WantStatistics {
			cs, err := s.db.CollectionStatistics(req.Collection)
			if err != nil {
				return fail(err)
			}
			resp.Statistics = cs
		}
	case OpHasCollection:
		resp.Bool = s.db.HasCollection(req.Collection)
	case OpTelemetry:
		resp.Telemetry = &obs.TelemetrySnapshot{
			Metrics: obs.Default.Snapshot(),
			Heat:    s.db.FragmentHeat(),
		}
	default:
		resp.Err = "wire: unknown operation"
	}
	return resp
}

// decodedNow reads the engine's docs-decoded counter when the server
// has a recorder; the delta across a query approximates its decode
// work (concurrent queries may attribute each other's decodes, which
// is fine for flight-recorder forensics).
func (s *Server) decodedNow() int64 {
	if s.opts.Recorder == nil {
		return 0
	}
	return s.db.Stats().DocsDecoded
}

func (s *Server) decodedDelta(before int64) int64 {
	if s.opts.Recorder == nil {
		return 0
	}
	if d := s.db.Stats().DocsDecoded - before; d > 0 {
		return d
	}
	return 0
}

// recordQuery publishes one served query into the node's flight
// recorder and workload profiler, when the server has them, from what
// its prepared entry holds. prep is nil when the text did not parse.
func (s *Server) recordQuery(req *Request, prep *engine.Prepared, elapsed time.Duration, items, bytes int, decoded int64, qerr error) {
	if s.opts.Profiler != nil && prep != nil {
		for coll, k := range prep.Keys {
			s.opts.Profiler.ObserveQuery(coll, k.Paths, k.Predicates)
		}
	}
	r := s.opts.Recorder
	if r == nil {
		return
	}
	failed := qerr != nil
	if !r.ShouldRecord(elapsed, failed) {
		obs.TelemetrySampledOut.Inc()
		return
	}
	var norm string
	if prep != nil {
		norm = prep.Normalized
	} else {
		norm = xquery.NormalizeQueryText(req.Query)
	}
	rec := &obs.QueryRecord{
		UnixNano:    time.Now().UnixNano(),
		TraceID:     req.TraceID,
		Query:       norm,
		DurationNs:  int64(elapsed),
		Items:       items,
		Bytes:       bytes,
		DocsDecoded: decoded,
		Slow:        r.IsSlow(elapsed),
	}
	if qerr != nil {
		rec.Error = qerr.Error()
	}
	r.Record(rec)
	obs.TelemetryRecords.Inc()
}
