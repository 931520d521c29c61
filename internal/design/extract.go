package design

import (
	"partix/internal/xquery"
)

// simplePredicates converts the constraints the query's scans of the
// collection carry — the ones fragment pruning reads, from
// xquery.ExtractScanHints — into document-level simple predicates:
// equalities with string literals and contains() text searches, over
// paths with no wildcard, // or attribute step.
func simplePredicates(e xquery.Expr, collection string) []xquery.Expr {
	var out []xquery.Expr
	for scan, h := range xquery.ExtractScanHints(e) {
		if scan.Name != collection {
			continue
		}
		for _, c := range h.Constraints {
			if c.Path != nil && c.Path.Op == xquery.CmpEq && !c.Path.Numeric {
				if p := plainPath(c.Path.Steps); p != nil {
					out = append(out, &xquery.Binary{Op: xquery.OpEq, Left: p, Right: &xquery.StringLit{Value: c.Path.Literal}})
				}
			}
			if c.Contains != nil {
				if p := plainPath(c.Contains.Steps); p != nil {
					out = append(out, &xquery.FuncCall{Name: "contains",
						Args: []xquery.Expr{p, &xquery.StringLit{Value: c.Contains.Needle}}})
				}
			}
		}
	}
	return out
}

// plainPath is /label/label/… for a label path with no wildcard, // or
// attribute step; nil otherwise.
func plainPath(steps []xquery.LabelStep) *xquery.PathExpr {
	labels, ok := xquery.PlainLabels(steps)
	if !ok {
		return nil
	}
	p := &xquery.PathExpr{Steps: make([]xquery.PathStep, len(labels))}
	for i, l := range labels {
		p.Steps[i].Name = l
	}
	return p
}
