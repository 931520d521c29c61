package partix

import (
	"fmt"
	"slices"
	"time"

	"partix/internal/cluster"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// executePlan runs a plan's steps through cluster.Execute — the one
// route every plan takes — and composes the answer. Sub-query batches
// merge into the composition as they arrive, so the coordinator overlaps
// composing with the nodes' transmission instead of waiting for every
// materialized sub-result; exists/empty cancel the remaining steps as
// soon as one fragment's verdict decides the global answer. Fetches get
// the same replica failover, accounting and in-flight limit. The composed
// items are identical at every batch size and in-flight limit.
// Sequential steps with slowest-site accounting are the paper's
// methodology and the default; concurrent mode runs every step at once.
// A semi-join runs in two rounds, each through cluster.Execute: round 2
// fetches only the documents every round-1 fetch returned, and is skipped
// when there are none; the rounds' times add.
// tag is the correlation identifier stamped on sub-queries; trace asks
// the nodes for their processing-step spans. Neither changes how the plan
// executes.
func (s *System) executePlan(e xquery.Expr, p *queryPlan, tag string, trace bool) (*QueryResult, error) {
	inflight := 1
	if s.Concurrent() {
		inflight = 0 // all at once
	}
	b := cluster.NewBufferSink(len(p.steps))
	var sink cluster.StreamSink = b
	if p.compose == composeDecider {
		sink = &deciderSink{BufferSink: b, name: p.fold}
	}
	first := len(p.steps)
	for i, st := range p.steps {
		if st.round == 2 {
			first = i
			break
		}
	}
	subs, err := s.buildSubs(p.steps[:first], tag, trace, nil)
	if err != nil {
		return nil, err
	}
	res, err := cluster.Execute(subs, s.cost, inflight, sink)
	if err != nil {
		return nil, err
	}
	if len(p.steps) > 0 && p.steps[0].where != nil { // a semi-join: its filtered fetches come first
		if names := semiJoinNames(res.Sub); len(names) > 0 && first < len(p.steps) {
			subs, err := s.buildSubs(p.steps[first:], tag, trace, names)
			if err != nil {
				return nil, err
			}
			next, err := cluster.Execute(subs, s.cost, inflight, sink)
			if err != nil {
				return nil, err
			}
			res.Then(next)
		}
	}
	// Only the final composition is charged as ComposeTime: the per-batch
	// merges happened while other nodes were still transmitting.
	start := time.Now()
	items, err := p.composeItems(e, b, res.Sub)
	if err != nil {
		return nil, err
	}
	out := &QueryResult{
		Items:            items,
		Strategy:         p.strategy,
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

// composeItems is the one place a plan's answer is composed: b holds the
// sub-queries' answers and subs the executed steps, both in step order.
func (p *queryPlan) composeItems(e xquery.Expr, b *cluster.BufferSink, subs []cluster.SubResult) (xquery.Seq, error) {
	switch p.compose {
	case composeAggregate:
		return foldAggregate(p.fold, b.Parts)
	case composeDecider:
		verdict, err := foldDecider(p.fold, b.Parts)
		if err != nil {
			return nil, err
		}
		return xquery.Seq{verdict}, nil
	case composeJoin:
		return p.joinAndEval(e, subs)
	}
	items := b.Concat()
	// A union hands its node items over as they arrived — a remote
	// node's unbuilt (storage.DeferredNode) — except the node of a
	// one-item answer, a lookup, which is built here: its caller reads
	// the one node it asked for, so deferring saves nothing, and a caller
	// telling a one-node answer from an atomic one by its Go type
	// (benchmark/oracle.go's scalarOf) sees a *xmltree.Node.
	if len(items) == 1 {
		if n, ok := xquery.NodeOf(items[0]); ok {
			items[0] = n
		}
	}
	return items, nil
}

// joinAndEval joins each collection's fetched documents back together —
// ⨝ by ID for vertical and hybrid fragments, ∪ for horizontal ones, in
// place on the fetched trees — and evaluates the query over the result:
// through the plan's compiled program when it has one, the interpreter
// otherwise. subs are the executed fetches, in step order; a semi-join
// whose round 2 was skipped has only its round-1 fetches there.
func (p *queryPlan) joinAndEval(e xquery.Expr, subs []cluster.SubResult) (xquery.Seq, error) {
	parts := map[*CollectionMeta][]*xmltree.Collection{}
	for i, sub := range subs {
		meta := p.steps[i].meta
		parts[meta] = append(parts[meta], sub.Docs)
	}
	src := memSource{}
	for meta, cols := range parts {
		if !meta.Fragmented() {
			src[meta.Name] = cols[0]
			continue
		}
		merged, err := meta.Scheme.Reconstruct(cols)
		if err != nil {
			return nil, fmt.Errorf("partix: reconstruction of %q failed: %w", meta.Name, err)
		}
		src[meta.Name] = merged
	}
	if p.prog != nil {
		return p.prog.Run(src)
	}
	return xquery.Eval(e, src)
}

// semiJoinNames intersects the document names of a semi-join's round-1
// fetches and drops, in place, every fetched document outside the
// intersection: a document one filter rejected takes no part in the join.
// The fetches arrive in document-name order, and so do the names.
func semiJoinNames(subs []cluster.SubResult) []string {
	var names []string
	for i, sub := range subs {
		in := make([]string, 0, sub.Docs.Len())
		for _, d := range sub.Docs.Docs {
			if _, found := slices.BinarySearch(names, d.Name); found || i == 0 {
				in = append(in, d.Name)
			}
		}
		names = in
	}
	for _, sub := range subs {
		sub.Docs.Docs = slices.DeleteFunc(sub.Docs.Docs, func(d *xmltree.Document) bool {
			_, found := slices.BinarySearch(names, d.Name)
			return !found
		})
	}
	return names
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
