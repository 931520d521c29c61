package partix

import (
	"fmt"

	"partix/internal/cluster"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// planStep is one request of a plan, bound for a fragment's node: a
// sub-query when expr is set, otherwise a fetch of the fragment's
// documents, each cut down to keep at the node (nil ships them whole).
type planStep struct {
	meta     *CollectionMeta
	fragment string
	node     string
	replicas []string
	expr     xquery.Expr
	keep     *xmltree.Projection
	// where, on a round-1 semi-join fetch, is the filter the node runs
	// over the fragment's documents: only those it selects ship.
	where xquery.Expr
	// round is 1, or 2 for a semi-join fetch restricted to the documents
	// every round-1 fetch returned.
	round int
}

// newStep targets fragment of meta at its primary node and replicas, in
// round 1; a nil expr makes the step a whole fetch.
func newStep(meta *CollectionMeta, fragment string, expr xquery.Expr) planStep {
	return planStep{meta: meta, fragment: fragment, node: meta.Placement[fragment],
		replicas: meta.Replicas[fragment], expr: expr, round: 1}
}

// composition is how a plan composes its answer from its steps' results.
type composition uint8

const (
	// composeConcat concatenates the sub-query answers in step order (∪).
	composeConcat composition = iota
	// composeAggregate folds count/sum/min/max/avg partial values.
	composeAggregate
	// composeDecider folds exists/empty verdicts, stopping at the first
	// decisive one.
	composeDecider
	// composeJoin joins the fetched documents back together (⨝, or ∪ for
	// horizontal fragments) and evaluates the query over them.
	composeJoin
)

// buildSubs resolves plan steps to cluster steps. tag is the correlation
// identifier every sub-query carries for log joining; trace additionally
// asks the nodes for their processing-step spans. names, when non-nil,
// restricts every fetch to those documents (a semi-join's round 2).
func (s *System) buildSubs(steps []planStep, tag string, trace bool, names []string) ([]cluster.SubQuery, error) {
	subs := make([]cluster.SubQuery, 0, len(steps))
	for _, st := range steps {
		node := s.Node(st.node)
		if node == nil {
			return nil, fmt.Errorf("partix: unknown node %q", st.node)
		}
		sub := cluster.SubQuery{Fragment: st.fragment, Node: node, Tag: tag, Trace: trace}
		if st.expr != nil {
			sub.Query = xquery.Format(st.expr)
		} else {
			sub.Fetch = st.meta.NodeCollection(st.fragment)
			sub.Spec = cluster.FetchSpec{Keep: st.keep, Names: names}
			if st.where != nil {
				sub.Spec.Where = xquery.Format(st.where)
			}
		}
		for _, r := range st.replicas {
			replica := s.Node(r)
			if replica == nil {
				return nil, fmt.Errorf("partix: unknown replica node %q", r)
			}
			sub.Replicas = append(sub.Replicas, replica)
		}
		subs = append(subs, sub)
	}
	return subs, nil
}

// decomposable reports whether a query over one fragmented collection
// composes from per-fragment answers, and with which fold. Two shapes do:
//   - a stream: a collection-rooted path, or a FLWOR whose first clause is
//     a for over one, with no order by and no other collection()
//     reference. Its answer is the ∪ of the per-fragment answers.
//   - count/sum/min/max/avg/exists/empty applied to a stream; fold names
//     the function that folds the per-fragment values.
//
// Any other shape — arithmetic over an aggregate, a let over the whole
// collection, a global order by, a constructor or quantifier around a
// stream, a second scan — reads the collection as a whole, so it is
// answered by join-and-evaluate over every fragment.
func decomposable(e xquery.Expr) (fold string, ok bool) {
	if f, isCall := e.(*xquery.FuncCall); isCall && len(f.Args) == 1 {
		switch f.Name {
		case "count", "sum", "min", "max", "avg", "exists", "empty":
			fold, e = f.Name, f.Args[0]
		}
	}
	src := e
	if fl, isFLWOR := e.(*xquery.FLWOR); isFLWOR {
		if len(fl.Clauses) == 0 || fl.Clauses[0].Let || len(fl.OrderBy) > 0 {
			return "", false
		}
		src = fl.Clauses[0].In
	}
	if _, _, rooted := xquery.CollectionRooted(src); !rooted {
		return "", false
	}
	scans := 0
	xquery.Walk(e, func(x xquery.Expr) {
		if _, isColl := x.(*xquery.CollectionCall); isColl {
			scans++
		}
	})
	return fold, scans == 1
}

// foldAggregate folds the per-fragment partial sequences of a
// decomposable aggregate into the global value.
func foldAggregate(name string, parts []xquery.Seq) (xquery.Seq, error) {
	switch name {
	case "count", "sum":
		total := 0.0
		for _, part := range parts {
			for _, it := range part {
				v, err := itemFloat(it)
				if err != nil {
					return nil, fmt.Errorf("partix: composing %s(): %w", name, err)
				}
				total += v
			}
		}
		return xquery.Seq{total}, nil
	case "min", "max":
		var best *float64
		for _, part := range parts {
			for _, it := range part {
				v, err := itemFloat(it)
				if err != nil {
					return nil, fmt.Errorf("partix: composing %s(): %w", name, err)
				}
				if best == nil || (name == "min" && v < *best) || (name == "max" && v > *best) {
					v := v
					best = &v
				}
			}
		}
		if best == nil {
			return nil, nil // min/max over nothing is empty
		}
		return xquery.Seq{*best}, nil
	case "avg":
		// Sub-queries were rewritten to (sum(X), count(X)) pairs.
		sum, count := 0.0, 0.0
		for _, part := range parts {
			if len(part) != 2 {
				return nil, fmt.Errorf("partix: avg() sub-result has %d items, want (sum, count)", len(part))
			}
			sv, err := itemFloat(part[0])
			if err != nil {
				return nil, err
			}
			cv, err := itemFloat(part[1])
			if err != nil {
				return nil, err
			}
			sum += sv
			count += cv
		}
		if count == 0 {
			return nil, nil // avg of the empty sequence is empty
		}
		return xquery.Seq{sum / count}, nil
	default:
		return nil, fmt.Errorf("partix: unknown aggregate %q", name)
	}
}

// foldDecider folds per-fragment boolean verdicts: a global exists()
// is the OR of the fragments' exists(), a global empty() the AND of
// their empty().
func foldDecider(name string, parts []xquery.Seq) (bool, error) {
	verdict := name == "empty" // identity element: OR starts false, AND starts true
	for _, part := range parts {
		for _, it := range part {
			v, ok := it.(bool)
			if !ok {
				return false, fmt.Errorf("partix: composing %s(): sub-result is %T, want boolean", name, it)
			}
			if name == "exists" {
				verdict = verdict || v
			} else {
				verdict = verdict && v
			}
		}
	}
	return verdict, nil
}

// rewriteAggregateForFragments prepares the per-fragment form of a
// decomposable aggregate: avg(X) becomes (sum(X), count(X)) so the
// coordinator can divide the totals; the distributive aggregates ship
// unchanged.
func rewriteAggregateForFragments(e xquery.Expr) xquery.Expr {
	f, ok := e.(*xquery.FuncCall)
	if !ok || f.Name != "avg" || len(f.Args) != 1 {
		return e
	}
	return &xquery.Sequence{Items: []xquery.Expr{
		&xquery.FuncCall{Name: "sum", Args: f.Args},
		&xquery.FuncCall{Name: "count", Args: f.Args},
	}}
}

func itemFloat(it xquery.Item) (float64, error) {
	if f, ok := it.(float64); ok {
		return f, nil
	}
	return 0, fmt.Errorf("aggregate sub-result is %T, want number", it)
}
