package partix

import (
	"fmt"

	"partix/internal/cluster"
	"partix/internal/xquery"
)

// fragQuery is one sub-query bound for a fragment's node.
type fragQuery struct {
	fragment string
	node     string
	replicas []string
	expr     xquery.Expr
}

// buildSubs resolves fragment queries to cluster sub-queries. tag is the
// correlation identifier every sub-query carries for log joining; trace
// additionally asks the nodes for their processing-step spans.
func (s *System) buildSubs(fqs []fragQuery, tag string, trace bool) ([]cluster.SubQuery, error) {
	subs := make([]cluster.SubQuery, 0, len(fqs))
	for _, fq := range fqs {
		node := s.Node(fq.node)
		if node == nil {
			return nil, fmt.Errorf("partix: unknown node %q", fq.node)
		}
		sub := cluster.SubQuery{
			Fragment: fq.fragment,
			Node:     node,
			Query:    xquery.Format(fq.expr),
			Tag:      tag,
			Trace:    trace,
		}
		for _, r := range fq.replicas {
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

// composeAggregateSeqs folds the per-fragment partial sequences of a
// decomposable aggregate into the global value.
func composeAggregateSeqs(name string, parts []xquery.Seq) (xquery.Seq, error) {
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

// composeDecider folds per-fragment boolean verdicts: a global exists()
// is the OR of the fragments' exists(), a global empty() the AND of
// their empty().
func composeDecider(name string, parts []xquery.Seq) (bool, error) {
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

// topLevelAggregate recognizes queries whose outermost expression is a
// decomposable aggregate.
func topLevelAggregate(e xquery.Expr) (string, bool) {
	f, ok := e.(*xquery.FuncCall)
	if !ok || len(f.Args) != 1 {
		return "", false
	}
	switch f.Name {
	case "count", "sum", "min", "max", "avg":
		return f.Name, true
	}
	return "", false
}

// topLevelDecider recognizes queries whose outermost expression is a
// boolean quantifier over one sequence. They compose by folding the
// per-fragment verdicts — exists() is the OR of the fragments'
// exists(), empty() the AND of their empty() — and, under streaming,
// terminate early: the first decisive verdict cancels the remaining
// sub-queries. (Composed as a plain union they would concatenate
// booleans, diverging from the centralized answer.)
func topLevelDecider(e xquery.Expr) (string, bool) {
	f, ok := e.(*xquery.FuncCall)
	if !ok || len(f.Args) != 1 {
		return "", false
	}
	switch f.Name {
	case "exists", "empty":
		return f.Name, true
	}
	return "", false
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
