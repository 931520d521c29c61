package design

import (
	"strings"

	"partix/internal/xpath"
	"partix/internal/xquery"
)

// extractSimplePredicates finds document-level simple predicates a query
// imposes on the collection: equality comparisons with string literals
// and contains() text searches, taken from conjunctive where positions
// and binding step predicates. Paths are absolutized against the binding
// (e.g. $i bound to collection("items")/Item plus $i/Section yields
// /Item/Section).
func extractSimplePredicates(e xquery.Expr, collection string) []xpath.Predicate {
	var out []xpath.Predicate
	xquery.Walk(e, func(x xquery.Expr) {
		f, ok := x.(*xquery.FLWOR)
		if !ok {
			return
		}
		vars := map[string][]string{}
		for _, cl := range f.Clauses {
			if cl.Let {
				continue
			}
			labels, steps, ok := bindingLabels(cl.In, collection, vars)
			if !ok {
				continue
			}
			vars[cl.Var] = labels
			for _, st := range steps {
				for _, p := range st.Preds {
					xquery.Conjuncts(p, func(term xquery.Expr) {
						if sp := simpleFromTerm(term, labels, vars); sp != nil {
							out = append(out, sp)
						}
					})
				}
			}
		}
		if f.Where == nil {
			return
		}
		xquery.Conjuncts(f.Where, func(term xquery.Expr) {
			if sp := simpleFromTerm(term, nil, vars); sp != nil {
				out = append(out, sp)
			}
		})
	})
	return out
}

// bindingLabels resolves a for-binding to absolute labels when rooted at
// the collection (directly or through an already-resolved variable).
func bindingLabels(e xquery.Expr, collection string, vars map[string][]string) (labels []string, steps []xquery.PathStep, ok bool) {
	pe, isPath := e.(*xquery.PathExpr)
	if !isPath {
		return nil, nil, false
	}
	var base []string
	switch src := pe.Source.(type) {
	case *xquery.CollectionCall:
		if src.Name != collection {
			return nil, nil, false
		}
	case *xquery.VarRef:
		b, known := vars[src.Name]
		if !known {
			return nil, nil, false
		}
		base = b
	default:
		return nil, nil, false
	}
	labels = append(labels, base...)
	for _, st := range pe.Steps {
		if st.Descendant || st.Attr || st.Text || st.Name == "*" {
			return nil, nil, false
		}
		labels = append(labels, st.Name)
	}
	return labels, pe.Steps, true
}

// simpleFromTerm converts one conjunct into an xpath simple predicate
// with an absolute path. ctxLabels is the context path for relative paths
// inside step predicates; nil at where-clause level.
func simpleFromTerm(term xquery.Expr, ctxLabels []string, vars map[string][]string) xpath.Predicate {
	switch x := term.(type) {
	case *xquery.Binary:
		if x.Op != xquery.OpEq {
			return nil
		}
		pe, lit := pathLiteral(x.Left, x.Right)
		if pe == nil {
			return nil
		}
		p := absolutePath(pe, ctxLabels, vars)
		if p == nil {
			return nil
		}
		return &xpath.Comparison{Path: p, Op: xpath.OpEq, Value: lit}
	case *xquery.FuncCall:
		if x.Name != "contains" || len(x.Args) != 2 {
			return nil
		}
		lit, ok := x.Args[1].(*xquery.StringLit)
		if !ok {
			return nil
		}
		pe, isPath := x.Args[0].(*xquery.PathExpr)
		if !isPath {
			return nil
		}
		p := absolutePath(pe, ctxLabels, vars)
		if p == nil {
			return nil
		}
		return &xpath.Contains{Path: p, Needle: lit.Value}
	default:
		return nil
	}
}

func pathLiteral(a, b xquery.Expr) (*xquery.PathExpr, string) {
	if lit, ok := b.(*xquery.StringLit); ok {
		if pe, ok := a.(*xquery.PathExpr); ok {
			return pe, lit.Value
		}
	}
	if lit, ok := a.(*xquery.StringLit); ok {
		if pe, ok := b.(*xquery.PathExpr); ok {
			return pe, lit.Value
		}
	}
	return nil, ""
}

// absolutePath builds /label/label/… from a path expression rooted at a
// resolved variable or at the predicate context.
func absolutePath(pe *xquery.PathExpr, ctxLabels []string, vars map[string][]string) *xpath.Path {
	var base []string
	switch src := pe.Source.(type) {
	case nil:
		if ctxLabels == nil {
			return nil
		}
		base = ctxLabels
	case *xquery.VarRef:
		b, known := vars[src.Name]
		if !known {
			return nil
		}
		base = b
	default:
		return nil
	}
	labels := append([]string{}, base...)
	for _, st := range pe.Steps {
		if st.Descendant || st.Attr || st.Text || st.Name == "*" || len(st.Preds) > 0 {
			return nil
		}
		labels = append(labels, st.Name)
	}
	if len(labels) == 0 {
		return nil
	}
	p, err := xpath.ParsePath("/" + strings.Join(labels, "/"))
	if err != nil {
		return nil
	}
	return p
}
