package design

import (
	"strings"

	"partix/internal/xpath"
	"partix/internal/xquery"
)

// simplePredicates converts the constraints the query's scans of the
// collection carry — the ones fragment pruning reads, from
// xquery.ExtractScanHints — into document-level simple predicates:
// equalities with string literals and contains() text searches, over
// paths with no wildcard, // or attribute step.
func simplePredicates(e xquery.Expr, collection string) []xpath.Predicate {
	var out []xpath.Predicate
	for scan, h := range xquery.ExtractScanHints(e) {
		if scan.Name != collection {
			continue
		}
		for _, c := range h.Constraints {
			if c.Path != nil && c.Path.Op == xquery.CmpEq && !c.Path.Numeric {
				if p := plainPath(c.Path.Steps); p != nil {
					out = append(out, &xpath.Comparison{Path: p, Op: xpath.OpEq, Value: c.Path.Literal})
				}
			}
			if c.Contains != nil {
				if p := plainPath(c.Contains.Steps); p != nil {
					out = append(out, &xpath.Contains{Path: p, Needle: c.Contains.Needle})
				}
			}
		}
	}
	return out
}

// plainPath is /label/label/… for a label path with no wildcard, // or
// attribute step; nil otherwise.
func plainPath(steps []xquery.LabelStep) *xpath.Path {
	labels, ok := xquery.PlainLabels(steps)
	if !ok {
		return nil
	}
	p, err := xpath.ParsePath("/" + strings.Join(labels, "/"))
	if err != nil {
		return nil
	}
	return p
}
