package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// ClientOptions tune the remote driver's transport behaviour. The zero
// value gives sensible production defaults (see the field comments); use
// an explicit negative value where documented to disable a mechanism.
type ClientOptions struct {
	// DialTimeout bounds each TCP connect. 0 means 5s.
	DialTimeout time.Duration
	// RequestTimeout is the per-operation deadline covering the full
	// round trip (send + receive). 0 means no deadline — a hung node
	// blocks the calling goroutine, as a plain TCP client would.
	RequestTimeout time.Duration
	// MaxRetries is how many times a retry-safe operation (reads and the
	// liveness ping, see retrySafe) is re-issued on a fresh connection
	// after a transport failure. 0 means 2; negative disables retries.
	// Mutating operations never retry: a lost response leaves their
	// outcome unknown.
	MaxRetries int
	// RetryBackoff is the wait before the first retry, doubled on each
	// subsequent one. 0 means 50ms.
	RetryBackoff time.Duration
	// PoolSize caps concurrent connections to the node, so parallel
	// sub-queries no longer serialize behind a single gob stream.
	// 0 means 4.
	PoolSize int
	// MaxMessageBytes bounds one incoming gob message (response or
	// frame). A peer declaring a larger message surfaces as a NodeError
	// — never an unbounded allocation — and its connection is dropped.
	// 0 means DefaultMaxMessageBytes (64 MiB).
	MaxMessageBytes int64
	// Tenant tags every request with a tenant identity for server-side
	// admission control: nodes running per-tenant quotas debit this
	// tenant's token bucket. Empty (the default) leaves requests untagged.
	Tenant string
	// Logger receives transport events (reconnects, swallowed
	// HasCollection failures) as leveled key=value records. nil
	// disables logging; wrap a *log.Logger with obs.FromStd to keep an
	// existing standard logger.
	Logger obs.Logger
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.Logger == nil {
		o.Logger = obs.Nop()
	}
	return o
}

// ClientStats counts transport events on one client, exposing the
// reconnect and error paths that HasCollection and the retry machinery
// otherwise absorb.
type ClientStats struct {
	// Dials is how many TCP connections were established.
	Dials int64
	// Retries is how many operations were re-issued after a transport
	// failure.
	Retries int64
	// TransportErrors counts failed round trips (encode, decode, or
	// deadline), each of which discards its connection.
	TransportErrors int64
	// NodeErrors counts application-level failures reported by the node
	// itself (the connection stays healthy and pooled).
	NodeErrors int64
	// Streams is how many framed result streams were started.
	Streams int64
	// Frames is how many result frames were received across all streams.
	Frames int64
	// StreamCancels counts streams abandoned mid-flight because the
	// consumer stopped early (early-terminating queries); each cancel
	// closes its connection so the node stops producing frames.
	StreamCancels int64
}

// NodeError is a failure the node itself reported in a Response. The
// connection is intact and the operation was delivered, so it is never
// retried. TraceID carries the query's correlation tag when the node
// echoed one (FrameErr), so the failure joins across coordinator and
// node logs.
type NodeError struct {
	Node    string
	Msg     string
	TraceID string
	// Overloaded marks a request the node's admission control shed rather
	// than failed: the node is healthy but at capacity, or the tenant's
	// quota ran dry. Callers match it with errors.Is(err, ErrNodeOverloaded).
	Overloaded bool
}

func (e *NodeError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("wire: node %s: %s (trace %s)", e.Node, e.Msg, e.TraceID)
	}
	return fmt.Sprintf("wire: node %s: %s", e.Node, e.Msg)
}

// Is makes errors.Is(err, ErrNodeOverloaded) match shed requests.
func (e *NodeError) Is(target error) bool {
	return target == ErrNodeOverloaded && e.Overloaded
}

// ErrNodeOverloaded is the sentinel for NodeErrors raised by server-side
// admission control (node at capacity or tenant quota exhausted). Such
// errors are never retried by the client — re-offering load to an
// overloaded node is exactly wrong.
var ErrNodeOverloaded = errors.New("wire: node overloaded")

// overloadedPrefix is how a server marks a shed request in the error
// text it sends (FrameErr); the client maps it back to
// NodeError.Overloaded.
const overloadedPrefix = "overloaded: "

// nodeError builds the NodeError for a node-reported failure, typing
// admission-control rejections by their wire prefix.
func (c *Client) nodeError(msg, traceID string) *NodeError {
	return &NodeError{
		Node:       c.name,
		Msg:        msg,
		TraceID:    traceID,
		Overloaded: len(msg) >= len(overloadedPrefix) && msg[:len(overloadedPrefix)] == overloadedPrefix,
	}
}

var errClientClosed = errors.New("wire: client is closed")

// poolConn is one pooled gob stream. Encoder/decoder state is bound to
// the connection, so a conn that saw any transport error is discarded
// whole — the stream may be desynced.
type poolConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func (pc *poolConn) deadline(timeout time.Duration) error {
	d := time.Time{}
	if timeout > 0 {
		d = time.Now().Add(timeout)
	}
	return pc.conn.SetDeadline(d)
}

func (pc *poolConn) send(req *Request, timeout time.Duration) error {
	if err := pc.deadline(timeout); err != nil {
		return err
	}
	if err := pc.enc.Encode(req); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	return nil
}

// recv decodes one message, refreshing the deadline first — on a frame
// stream the timeout therefore bounds each frame gap, not the whole
// stream.
func (pc *poolConn) recv(v any, timeout time.Duration) error {
	if err := pc.deadline(timeout); err != nil {
		return err
	}
	if err := pc.dec.Decode(v); err != nil {
		return fmt.Errorf("receive: %w", err)
	}
	return nil
}

func (pc *poolConn) do(req *Request, timeout time.Duration) (*Response, error) {
	if err := pc.send(req, timeout); err != nil {
		return nil, err
	}
	var resp Response
	if err := pc.recv(&resp, timeout); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Client is a remote node driver: it satisfies cluster.Driver over a
// pool of TCP connections to a partixd server. All methods are safe for
// concurrent use; a transport failure on one connection never poisons
// the others, and retry-safe operations transparently reconnect.
type Client struct {
	name string
	addr string
	opts ClientOptions

	// slots bounds live connections at opts.PoolSize: one token is held
	// for the duration of every round trip and while dialing.
	slots chan struct{}

	mu     sync.Mutex
	closed bool
	idle   []*poolConn

	dials, retries, transportErrs, nodeErrs atomic.Int64
	streams, frames, streamCancels          atomic.Int64
}

// Dial connects to a node server with default options; timeout bounds
// the TCP connect. name is the node's logical name in the PartiX system.
func Dial(name, addr string, timeout time.Duration) (*Client, error) {
	return DialWith(name, addr, ClientOptions{DialTimeout: timeout})
}

// DialWith connects to a node server and verifies it answers a ping in
// this build's protocol version.
func DialWith(name, addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{
		name:  name,
		addr:  addr,
		opts:  opts,
		slots: make(chan struct{}, opts.PoolSize),
	}
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Options reports the client's effective (defaulted) options.
func (c *Client) Options() ClientOptions { return c.opts }

// Stats reports cumulative transport counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Dials:           c.dials.Load(),
		Retries:         c.retries.Load(),
		TransportErrors: c.transportErrs.Load(),
		NodeErrors:      c.nodeErrs.Load(),
		Streams:         c.streams.Load(),
		Frames:          c.frames.Load(),
		StreamCancels:   c.streamCancels.Load(),
	}
}

// Close terminates all pooled connections. Connections checked out by
// in-flight operations are closed as they are returned. Close is
// idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var err error
	for _, pc := range c.idle {
		if cerr := pc.conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	c.idle = nil
	return err
}

// get checks out a connection, dialing a new one when the pool has no
// idle stream, and blocking when PoolSize round trips are in flight.
func (c *Client) get() (*poolConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	c.mu.Unlock()
	c.slots <- struct{}{}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.slots
		return nil, errClientClosed
	}
	if n := len(c.idle); n > 0 {
		pc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()
	raw, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		<-c.slots
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.dials.Add(1)
	obs.WireClientReconnects.Inc()
	conn := &countingConn{Conn: raw, in: obs.WireClientBytesIn, out: obs.WireClientBytesOut}
	return &poolConn{
		conn: conn,
		enc:  gob.NewEncoder(conn),
		dec:  gob.NewDecoder(newLimitReader(conn, c.opts.MaxMessageBytes)),
	}, nil
}

// put returns a healthy connection to the pool.
func (c *Client) put(pc *poolConn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		pc.conn.Close()
	} else {
		c.idle = append(c.idle, pc)
		c.mu.Unlock()
	}
	<-c.slots
}

// drop closes a connection and releases its pool slot without touching
// the error counters — used when the consumer abandons a healthy stream
// on purpose (the server's next frame write then fails, which is what
// stops it producing).
func (c *Client) drop(pc *poolConn) {
	pc.conn.Close()
	<-c.slots
}

// discard drops a connection whose gob stream can no longer be trusted.
func (c *Client) discard(pc *poolConn) {
	c.drop(pc)
	c.transportErrs.Add(1)
}

// stamp fills in what every request carries: the protocol version the
// server checks and the client's tenant tag.
func (c *Client) stamp(req *Request) {
	req.Proto = ProtocolVersion
	req.Tenant = c.opts.Tenant
}

// permanent reports whether err must not be retried on a fresh
// connection: the node itself answered (NodeError), the peer speaks
// another protocol, or the client is closed.
func permanent(err error) bool {
	var ne *NodeError
	var pm *ErrProtocolMismatch
	return errors.Is(err, errClientClosed) || errors.As(err, &ne) || errors.As(err, &pm)
}

// once performs a single round trip on one pooled connection.
func (c *Client) once(req *Request) (*Response, error) {
	pc, err := c.get()
	if err != nil {
		return nil, err
	}
	obs.WireClientRequests.Inc()
	obs.WireClientInflight.Add(1)
	defer obs.WireClientInflight.Add(-1)
	c.stamp(req)
	resp, err := pc.do(req, c.opts.RequestTimeout)
	if err != nil {
		var tooBig *ErrMessageTooBig
		if errors.As(err, &tooBig) {
			// The node answered, but with a message over the size limit.
			// That is the node's failure, not the link's: surface it as a
			// NodeError (never retried — a retry would fetch the same
			// oversize response) and drop the now-desynced connection.
			c.drop(pc)
			c.nodeErrs.Add(1)
			return nil, &NodeError{Node: c.name, Msg: tooBig.Error()}
		}
		c.discard(pc)
		return nil, fmt.Errorf("wire: %s: %w", c.addr, err)
	}
	if resp.Proto != ProtocolVersion {
		c.drop(pc)
		return nil, &ErrProtocolMismatch{Node: c.name, Peer: resp.Proto}
	}
	c.put(pc)
	if resp.Err != "" {
		c.nodeErrs.Add(1)
		return nil, c.nodeError(resp.Err, "")
	}
	return resp, nil
}

// roundTrip performs the request, transparently redialing and retrying
// retry-safe operations (with exponential backoff) after transport
// failures. Application errors from the node, a protocol mismatch and
// operations on a closed client are never retried.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	attempts := 1
	if retrySafe[req.Op] {
		attempts += c.opts.MaxRetries
	}
	backoff := c.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			obs.WireClientRetries.Inc()
			c.opts.Logger.Log(obs.LevelWarn, "wire: retrying request",
				"op", req.Op, "node", c.name, "backoff", backoff,
				"attempt", attempt+1, "attempts", attempts, "err", lastErr)
			time.Sleep(backoff)
			backoff *= 2
		}
		resp, err := c.once(req)
		if err == nil {
			return resp, nil
		}
		if permanent(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// ErrStop is returned by a stream consumer to cancel the remainder of a
// stream. The client abandons the stream, closes its connection (which
// makes the server's next frame write fail, stopping production), and
// reports success to the caller.
var ErrStop = errors.New("wire: stop streaming")

// deliverError wraps an error returned by the stream consumer, so the
// retry machinery can tell "the consumer refused the data" from "the
// transport failed".
type deliverError struct{ cause error }

func (e *deliverError) Error() string { return e.cause.Error() }
func (e *deliverError) Unwrap() error { return e.cause }

// streamOnce issues one streaming request on one pooled connection and
// feeds each non-empty batch — FrameEnd's included — to deliver in
// arrival order. It returns the number of batches handed to the consumer
// (a transparent retry is only safe while that is zero, unless the
// caller can roll its state back) and the FrameEnd trailer, if any.
func (c *Client) streamOnce(req *Request, deliver func(*Frame) error) (int, *Trailer, error) {
	pc, err := c.get()
	if err != nil {
		return 0, nil, err
	}
	obs.WireClientRequests.Inc()
	obs.WireClientInflight.Add(1)
	defer obs.WireClientInflight.Add(-1)
	c.stamp(req)
	if err := pc.send(req, c.opts.RequestTimeout); err != nil {
		c.discard(pc)
		return 0, nil, fmt.Errorf("wire: %s: %w", c.addr, err)
	}
	c.streams.Add(1)
	delivered, total := 0, 0
	for {
		var f Frame
		if err := pc.recv(&f, c.opts.RequestTimeout); err != nil {
			var tooBig *ErrMessageTooBig
			if errors.As(err, &tooBig) {
				c.drop(pc)
				c.nodeErrs.Add(1)
				return delivered, nil, &NodeError{Node: c.name, Msg: tooBig.Error()}
			}
			c.discard(pc)
			return delivered, nil, fmt.Errorf("wire: %s: %w", c.addr, err)
		}
		c.frames.Add(1)
		obs.WireClientFrames.Inc()
		switch f.Kind {
		case FrameItems, FrameDocs, FrameEnd:
			end := f.Kind == FrameEnd
			n := f.Count + len(f.Docs)
			total += n
			if end && f.Total != total {
				c.discard(pc)
				return delivered, nil, fmt.Errorf("wire: %s: stream integrity: node sent %d items, frames carried %d",
					c.addr, f.Total, total)
			}
			if n != 0 {
				delivered++
				if err := deliver(&f); err != nil {
					if end {
						c.put(pc) // the stream is complete; nothing left to cancel
					} else {
						c.drop(pc)
						c.streamCancels.Add(1)
					}
					return delivered, nil, &deliverError{cause: err}
				}
			}
			if end {
				c.put(pc)
				return delivered, f.Trailer, nil
			}
		case FrameErr:
			c.put(pc)
			c.nodeErrs.Add(1)
			return delivered, nil, c.nodeError(f.Err, f.TraceID)
		default:
			// Not a frame at all — a server rejecting this build's version
			// answers with a Response, which decodes as kind 0.
			c.drop(pc)
			return delivered, nil, &ErrProtocolMismatch{Node: c.name}
		}
	}
}

// stream runs a streaming request under the retry policy. After a
// transport failure the operation is re-issued on a fresh connection
// only if no batch reached the consumer yet, or if reset (rolling the
// consumer's accumulated state back to empty) is provided. Node errors,
// protocol mismatches and consumer cancellation are never retried.
func (c *Client) stream(req *Request, deliver func(*Frame) error, reset func()) (*Trailer, error) {
	attempts := 1 + c.opts.MaxRetries
	backoff := c.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			obs.WireClientRetries.Inc()
			c.opts.Logger.Log(obs.LevelWarn, "wire: retrying stream",
				"op", req.Op, "node", c.name, "backoff", backoff,
				"attempt", attempt+1, "attempts", attempts, "err", lastErr)
			time.Sleep(backoff)
			backoff *= 2
		}
		delivered, trailer, err := c.streamOnce(req, deliver)
		if err == nil {
			return trailer, nil
		}
		var de *deliverError
		if errors.As(err, &de) {
			if errors.Is(de.cause, ErrStop) {
				return nil, nil
			}
			return nil, de.cause
		}
		if permanent(err) {
			return nil, err
		}
		if delivered > 0 {
			if reset == nil {
				return nil, err
			}
			reset()
		}
		lastErr = err
	}
	return nil, lastErr
}

// Name implements cluster.Driver.
func (c *Client) Name() string { return c.name }

// Ping implements cluster.Pinger with a protocol round trip.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: OpPing})
	return err
}

// CreateCollection implements cluster.Driver.
func (c *Client) CreateCollection(name string) error {
	_, err := c.roundTrip(&Request{Op: OpCreateCollection, Collection: name})
	return err
}

// StoreDocument implements cluster.Driver.
func (c *Client) StoreDocument(collection string, doc *xmltree.Document) error {
	data, err := storage.EncodeDocument(doc)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(&Request{
		Op: OpStoreDocument, Collection: collection, DocName: doc.Name, DocData: data,
	})
	return err
}

// query is the one result exchange every query method goes through:
// each received frame's payload is parsed once and its node items checked
// together (DecodeSeq), then handed to yield in arrival order, from the
// calling goroutine: a frame that fails the check fails the query here. reset, when non-nil, lets a stream cut after
// delivery retry from scratch (see stream).
func (c *Client) query(req *Request, yield func(xquery.Seq) error, reset func()) ([]obs.Span, error) {
	req.Op = OpQueryStream
	trailer, err := c.stream(req, func(f *Frame) error {
		items, err := parseItems(f.Count, f.Payload)
		if err != nil {
			return err
		}
		seq, err := DecodeSeq(items)
		if err != nil {
			return err
		}
		return yield(seq)
	}, reset)
	if err != nil || trailer == nil {
		return nil, err
	}
	return trailer.Spans, nil
}

// Query implements cluster.Driver: yield is called once per received
// batch. Returning ErrStop from yield cancels the remaining frames (the
// node stops producing) and Query returns nil; any other error cancels
// the stream and is returned. tag rides the request so the node's
// flight-recorder entry and a FrameErr carry it. With trace set the node
// also times its processing steps (parse, plan, execute, serialize) and
// the spans come back from the FrameEnd trailer; the frames before it
// are the same either way. A stream cut after the first batch was
// delivered is not retried — the caller owns what it already consumed.
// Each batch is one frame: its node items are storage.DeferredNodes that
// share the frame's payload until one is asked for its tree, then one
// decoded slab, so a node the caller keeps keeps its whole frame (at most
// the server's MaxFrameBytes of records) alive.
func (c *Client) Query(query, tag string, trace bool, yield func(xquery.Seq) error) ([]obs.Span, error) {
	return c.query(&Request{Query: query, TraceID: tag, Trace: trace}, yield, nil)
}

// StreamQuery is Query without a tag or tracing.
func (c *Client) StreamQuery(query string, yield func(xquery.Seq) error) error {
	_, err := c.query(&Request{Query: query}, yield, nil)
	return err
}

// ExecuteQuery accumulates the streamed result into one sequence. It
// owns the accumulated state, so unlike Query it can roll back and retry
// a stream that was cut mid-way.
func (c *Client) ExecuteQuery(query string) (xquery.Seq, error) {
	var out xquery.Seq
	_, err := c.query(&Request{Query: query}, func(s xquery.Seq) error {
		out = append(out, s...)
		return nil
	}, func() { out = nil })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FetchCollection fetches a whole collection: Fetch with the zero spec.
func (c *Client) FetchCollection(collection string) (*xmltree.Collection, error) {
	return c.Fetch(collection, cluster.FetchSpec{})
}

// Fetch implements cluster.Driver: the node selects the documents by
// spec.Names and spec.Where (Request.Names, Request.Where) and cuts every
// one down to spec.Keep before shipping it (Request.Keep), and documents
// decode as frames arrive, bounding transfer memory to one frame. A fetch
// of an empty name list ships nothing and needs no request.
func (c *Client) Fetch(collection string, spec cluster.FetchSpec) (*xmltree.Collection, error) {
	col := xmltree.NewCollection(collection)
	if spec.Names != nil && len(spec.Names) == 0 {
		return col, nil
	}
	req := &Request{Op: OpFetchStream, Collection: collection, Where: spec.Where, Names: spec.Names}
	if !spec.Keep.Whole() {
		req.Keep = spec.Keep.String()
	}
	deliver := func(f *Frame) error {
		if len(f.DocNames) != len(f.Docs) {
			return fmt.Errorf("wire: frame carries %d names for %d documents", len(f.DocNames), len(f.Docs))
		}
		for i, raw := range f.Docs {
			doc, err := storage.DecodeDocument(f.DocNames[i], raw)
			if err != nil {
				return err
			}
			col.Add(doc)
		}
		return nil
	}
	reset := func() { col = xmltree.NewCollection(collection) }
	if _, err := c.stream(req, deliver, reset); err != nil {
		return nil, err
	}
	return col, nil
}

// CollectionStats implements cluster.Driver.
func (c *Client) CollectionStats(collection string) (storage.Stats, error) {
	resp, err := c.roundTrip(&Request{Op: OpStats, Collection: collection})
	if err != nil {
		return storage.Stats{}, err
	}
	return resp.Stats, nil
}

// CollectionStatistics implements cluster.StatisticsProvider: the planner
// statistics snapshot via the extended OpStats exchange. A node running
// with indexing disabled returns (nil, nil), and coordinators degrade to
// planning without statistics instead of erroring.
func (c *Client) CollectionStatistics(collection string) (*engine.CollectionStatistics, error) {
	resp, err := c.roundTrip(&Request{Op: OpStats, Collection: collection, WantStatistics: true})
	if err != nil {
		return nil, err
	}
	return resp.Statistics, nil
}

// Telemetry implements cluster.TelemetryProvider: the node's metric
// snapshot and per-fragment heat via OpTelemetry.
func (c *Client) Telemetry() (*obs.TelemetrySnapshot, error) {
	resp, err := c.roundTrip(&Request{Op: OpTelemetry})
	if err != nil {
		return nil, err
	}
	snap := resp.Telemetry
	if snap != nil {
		// The node does not know its logical cluster name; stamp it here.
		snap.Node = c.name
	}
	return snap, nil
}

// CheckCollection reports whether the node holds the collection,
// distinguishing "node said no" (false, nil) from "node unreachable"
// (false, err).
func (c *Client) CheckCollection(collection string) (bool, error) {
	resp, err := c.roundTrip(&Request{Op: OpHasCollection, Collection: collection})
	if err != nil {
		return false, err
	}
	return resp.Bool, nil
}

// HasCollection implements cluster.Driver. A transport failure that
// survives the retry policy cannot be surfaced through this boolean
// interface; it is logged, counted in Stats, and reported as false.
// Callers that must tell absence from unreachability use CheckCollection.
func (c *Client) HasCollection(collection string) bool {
	ok, err := c.CheckCollection(collection)
	if err != nil {
		c.opts.Logger.Log(obs.LevelWarn, "wire: HasCollection unreachable, reporting false",
			"collection", collection, "node", c.name, "err", err)
	}
	return ok
}
