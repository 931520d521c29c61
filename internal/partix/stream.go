package partix

import (
	"fmt"
	"time"

	"partix/internal/cluster"
	"partix/internal/xquery"
)

// executeSubQueries runs a sub-query plan — the one route every
// centralized, routed, union and aggregate plan takes. Result batches
// merge into the composition as they arrive, so the coordinator overlaps
// composing with the nodes' transmission instead of waiting for every
// materialized sub-result: a union concatenates in sub-query order (the ∪
// reconstruction), an aggregate folds the per-fragment values (sum for
// count/sum, min/max for min/max, a sum-and-count division for avg), and
// exists/empty fold booleans and cancel the remaining sub-queries as soon
// as one fragment's verdict decides the global answer. The composed items
// are identical at every batch size and in-flight limit. Sequential
// sub-queries with slowest-site accounting are the paper's methodology
// and the default; concurrent mode runs every sub-query at once.
func (s *System) executeSubQueries(e xquery.Expr, fqs []fragQuery, strategy Strategy, tag string, trace bool) (*QueryResult, error) {
	subs, err := s.buildSubs(fqs, tag, trace)
	if err != nil {
		return nil, err
	}
	inflight := 1
	if s.Concurrent() {
		inflight = 0 // all at once
	}
	b := cluster.NewBufferSink(len(subs))
	var sink cluster.StreamSink = b
	finish := func() (xquery.Seq, error) { return b.Concat(), nil }
	if strategy == StrategyAggregate {
		if name, ok := topLevelDecider(e); ok {
			d := &deciderSink{BufferSink: b, name: name}
			sink, finish = d, d.finish
		} else if name, ok := topLevelAggregate(e); ok {
			finish = func() (xquery.Seq, error) { return composeAggregateSeqs(name, b.Parts) }
		}
	}
	res, err := cluster.Execute(subs, s.cost, inflight, sink)
	if err != nil {
		return nil, err
	}
	// Only the final fold is charged as ComposeTime: the per-batch merges
	// happened while other nodes were still transmitting.
	start := time.Now()
	items, err := finish()
	if err != nil {
		return nil, err
	}
	out := &QueryResult{
		Items:            items,
		Strategy:         strategy,
		ParallelTime:     res.ParallelTime,
		TransmissionTime: res.TransmissionTime,
		FirstItemLatency: res.FirstItem,
		Frames:           res.Frames,
	}
	for _, sub := range res.Sub {
		out.Fragments = append(out.Fragments, sub.Fragment)
		out.StreamedBytes += sub.ResultBytes
		out.Sub = append(out.Sub, SubTiming{
			Fragment:    sub.Fragment,
			Node:        sub.Node,
			Elapsed:     sub.Elapsed,
			ResultBytes: sub.ResultBytes,
			Items:       sub.ItemCount,
			FirstFrame:  sub.FirstFrame,
			Cancelled:   sub.Cancelled,
			Spans:       sub.Spans,
		})
	}
	out.ComposeTime = time.Since(start)
	return out, nil
}

// deciderSink composes exists()/empty() incrementally and stops the
// execution the moment one fragment's verdict is decisive: a true from
// any fragment decides exists(), a false decides empty(). Undecided
// streams keep their per-fragment verdicts for the final fold.
type deciderSink struct {
	*cluster.BufferSink
	name string
}

// Batch implements cluster.StreamSink.
func (d *deciderSink) Batch(sub int, items xquery.Seq) (bool, error) {
	d.BufferSink.Batch(sub, items)
	for _, it := range items {
		v, ok := it.(bool)
		if !ok {
			return false, fmt.Errorf("partix: composing %s(): sub-result is %T, want boolean", d.name, it)
		}
		if (d.name == "exists") == v {
			// exists saw a true, or empty saw a false: decided.
			return true, nil
		}
	}
	return false, nil
}

func (d *deciderSink) finish() (xquery.Seq, error) {
	verdict, err := composeDecider(d.name, d.Parts)
	if err != nil {
		return nil, err
	}
	return xquery.Seq{verdict}, nil
}
