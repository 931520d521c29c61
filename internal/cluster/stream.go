package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/obs"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// StreamSink consumes partial results during an execution. Batch is
// never called concurrently — the scheduler serializes delivery across
// sub-queries — so implementations need no locking of their own.
type StreamSink interface {
	// Batch receives one batch of sub-query sub's result items, in the
	// node's result order. Returning stop cancels every remaining stream
	// (early-terminating compositions: an exists() that has seen its
	// witness); returning an error aborts the whole execution.
	Batch(sub int, items xquery.Seq) (stop bool, err error)
	// Reset discards everything delivered for sub-query sub. It is
	// called when a stream fails mid-flight and the executor fails over
	// to a replica, which re-delivers the sub-query from the start.
	Reset(sub int)
}

// BufferSink is the StreamSink that keeps everything: batches accumulate
// per sub-query, preserving sub-query order for the ∪ reconstruction
// regardless of arrival interleaving.
type BufferSink struct {
	Parts []xquery.Seq
}

// NewBufferSink returns a sink for n sub-queries.
func NewBufferSink(n int) *BufferSink {
	return &BufferSink{Parts: make([]xquery.Seq, n)}
}

// Batch implements StreamSink.
func (b *BufferSink) Batch(sub int, items xquery.Seq) (bool, error) {
	b.Parts[sub] = append(b.Parts[sub], items...)
	return false, nil
}

// Reset implements StreamSink (replica failover re-delivery).
func (b *BufferSink) Reset(sub int) { b.Parts[sub] = nil }

// Concat returns the partial results concatenated in sub-query order.
func (b *BufferSink) Concat() xquery.Seq {
	n := 0
	for _, p := range b.Parts {
		n += len(p)
	}
	out := make(xquery.Seq, 0, n)
	for _, p := range b.Parts {
		out = append(out, p...)
	}
	return out
}

// errStreamStop aborts a node stream whose output is no longer needed.
var errStreamStop = errors.New("cluster: stream stopped by sink")

// sinkFailure wraps an error returned by the sink itself, so the
// executor can tell "the consumer is broken" (abort everything) from
// "the node failed" (fail over to a replica).
type sinkFailure struct{ cause error }

func (e *sinkFailure) Error() string { return e.cause.Error() }
func (e *sinkFailure) Unwrap() error { return e.cause }

// streamState is the shared consumer side of one execution.
type streamState struct {
	sink    StreamSink
	start   time.Time
	stopped atomic.Bool

	mu        sync.Mutex
	firstItem time.Duration // time to the first non-empty batch overall
}

func (st *streamState) deliver(sub int, items xquery.Seq) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.firstItem == 0 && len(items) > 0 {
		st.firstItem = time.Since(st.start)
	}
	stop, err := st.sink.Batch(sub, items)
	if stop {
		st.stopped.Store(true)
	}
	return stop, err
}

func (st *streamState) reset(sub int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sink.Reset(sub)
}

// Execute is the one step scheduler: it runs the steps — sub-queries and
// fetches alike — with at most inflight of them in progress (0 means all
// at once), taking them in order, and hands each sub-query's batches to
// sink as they arrive, so the coordinator composes while slower nodes
// are still transmitting. The in-flight limit is the whole execution
// policy.
// inflight = 1 runs the sub-queries one after another on the calling
// goroutine with slowest-site accounting — the paper's own simulation of
// intra-query parallelism ("assuming that all fragments are placed at
// different sites and that the sub-queries are executed in parallel").
// A larger limit is a real deployment, where each sub-query's time
// includes genuine network and remote processing overlap; the cap then
// bounds coordinator resources (goroutines, sockets, node load) and is
// independent of the CostModel. SubResults keep sub-query order whatever
// the completion order. When sink signals stop, in-flight deliveries are
// cancelled (the drivers stop their node producing) and sub-queries not
// yet started are skipped, their SubResults marked Cancelled.
func Execute(subs []SubQuery, cost CostModel, inflight int, sink StreamSink) (*ExecResult, error) {
	type outcome struct {
		sub SubResult
		err error
	}
	outcomes := make([]outcome, len(subs))
	st := &streamState{sink: sink, start: time.Now()}
	var next atomic.Int64
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(subs) {
				return
			}
			if st.stopped.Load() {
				outcomes[i].sub = SubResult{Fragment: subs[i].Fragment, Cancelled: true}
				continue
			}
			outcomes[i].sub, outcomes[i].err = runSub(i, subs[i], st)
			if outcomes[i].err != nil {
				st.stopped.Store(true) // the execution fails; stop spending on it
			}
		}
	}
	if inflight <= 0 || inflight > len(subs) {
		inflight = len(subs)
	}
	if inflight <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < inflight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	res := &ExecResult{FirstItem: st.firstItem}
	for i, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
		res.add(o.sub, cost, len(subs[i].Query))
	}
	return res, nil
}

// runSub runs one step, trying the primary node, then each replica in
// turn: a sub-query delivers into the shared sink, a fetch into its
// SubResult. A failover after partial delivery resets the sink's state
// for this sub-query first, so the replica's re-delivery starts from a
// clean slate and nothing is seen twice. When every copy fails, the error
// names each node tried with its own failure.
func runSub(i int, sq SubQuery, st *streamState) (SubResult, error) {
	if sq.Fetch == "" {
		obs.ClusterSubQueries.Inc()
	}
	nodes := make([]Driver, 0, 1+len(sq.Replicas))
	nodes = append(nodes, sq.Node)
	nodes = append(nodes, sq.Replicas...)
	var errs []error
	for attempt, node := range nodes {
		if attempt > 0 {
			obs.ClusterFailovers.Inc()
		}
		if st.stopped.Load() {
			obs.ClusterStreamCancels.Inc()
			return SubResult{Fragment: sq.Fragment, Node: node.Name(), Cancelled: true}, nil
		}
		if sq.Fetch != "" {
			sub, err := runFetch(sq, node)
			if err == nil {
				return sub, nil
			}
			errs = append(errs, fmt.Errorf("node %s: %w", node.Name(), err))
			continue
		}
		start := time.Now()
		var firstFrame, sizing time.Duration
		frames, bytes, count := 0, 0, 0
		spans, err := node.Query(sq.Query, sq.Tag, sq.Trace, func(items xquery.Seq) error {
			if st.stopped.Load() {
				return errStreamStop
			}
			sizeStart := time.Now()
			if frames == 0 {
				firstFrame = sizeStart.Sub(start)
			}
			frames++
			bytes += SeqBytes(items)
			count += len(items)
			sizing += time.Since(sizeStart)
			stop, err := st.deliver(i, items)
			if err != nil {
				return &sinkFailure{cause: err}
			}
			if stop {
				return errStreamStop
			}
			return nil
		})
		sub := SubResult{
			Fragment: sq.Fragment, Node: node.Name(), Elapsed: time.Since(start) - sizing,
			ResultBytes: bytes, ItemCount: count, FirstFrame: firstFrame, Frames: frames, Spans: spans,
		}
		if err == nil {
			return sub, nil
		}
		if errors.Is(err, errStreamStop) {
			sub.Cancelled = true
			obs.ClusterStreamCancels.Inc()
			return sub, nil
		}
		var sf *sinkFailure
		if errors.As(err, &sf) {
			// The consumer failed, not the node: aborting, not failing over
			// (a replica would only re-deliver into the same broken sink).
			return SubResult{}, sf.cause
		}
		if frames > 0 {
			st.reset(i)
		}
		errs = append(errs, fmt.Errorf("node %s: %w", node.Name(), err))
	}
	return SubResult{}, fmt.Errorf("cluster: step on fragment %q failed on all %d copies: %w",
		sq.Fragment, len(nodes), errors.Join(errs...))
}

// runFetch runs a fetch step on one node. The documents are sized at
// their XML text, the payload the transmission model charges for, like a
// query's batches; the sizing stays out of Elapsed.
func runFetch(sq SubQuery, node Driver) (SubResult, error) {
	start := time.Now()
	col, err := node.Fetch(sq.Fetch, sq.Spec)
	elapsed := time.Since(start)
	if err != nil {
		return SubResult{}, err
	}
	bytes := 0
	for _, d := range col.Docs {
		bytes += xmltree.SerializedSize(d)
	}
	return SubResult{Fragment: sq.Fragment, Node: node.Name(), Elapsed: elapsed,
		ResultBytes: bytes, ItemCount: col.Len(), Docs: col}, nil
}
