package partix

import (
	"partix/internal/fragmentation"
	"partix/internal/xquery"
	"partix/internal/xquery/exec"
)

// Semi-join reconstruction. A join query whose for variable binds the
// collection's document roots (one binding per document) need not fetch
// every touched fragment whole before it filters: a where conjunct that
// one fragment can decide on its own is shipped to that fragment as a
// fetch filter (round 1), and the other fragments are then fetched by the
// names of the documents every round-1 fetch returned (round 2). The
// coordinator joins both rounds by ID (⨝) and runs the residual query —
// the query minus the pushed conjuncts — over the joined documents.
//
// Fragment f decides conjunct c when
//   - every path c reads lies under f's projection path, outside f's
//     prune paths (and not above one), with no // step and no variable
//     but the document binding: c then has the same value on the
//     document's f-part as on the reconstructed document; and
//   - c is false for a document with no part in f (a comparison of a
//     path with a literal, contains/starts-with/ends-with with a
//     non-empty literal, exists over a path), or f holds every document.
//
// So a document passes the filters iff the reconstructed document passes
// the pushed conjuncts, and the residual over the semi-joined documents
// answers what the query answers over the whole join.

// whereSplit is a join query's where clause divided between the fragments
// that decide its conjuncts and the coordinator.
type whereSplit struct {
	// filters holds, per fragment of the join in order, the fetch filter
	// deciding that fragment's conjuncts over its node collection; nil
	// when the fragment decides none.
	filters []xquery.Expr
	// residual is the query with the pushed conjuncts removed, compiled.
	residual *exec.Program
}

// splitWhere divides e's where conjuncts between frags, the fragments of
// a join over meta, reading which paths each conjunct reads from reads,
// e's read set. It returns nil when e is not a decomposable FLWOR
// binding meta's document roots, when no fragment decides any conjunct,
// or when a filter or the residual query is outside the compiled subset.
func splitWhere(e xquery.Expr, meta *CollectionMeta, reads xquery.Reads, frags []*fragmentation.Fragment) *whereSplit {
	fold, ok := decomposable(e)
	if !ok || meta.Scheme.AllHorizontal() {
		return nil
	}
	stream := e
	if fold != "" {
		stream = e.(*xquery.FuncCall).Args[0]
	}
	fl, ok := stream.(*xquery.FLWOR)
	if !ok || fl.Where == nil {
		return nil
	}
	coll, steps, _ := xquery.CollectionRooted(fl.Clauses[0].In)
	if coll != meta.Name || len(steps) != 1 || steps[0].Descendant || steps[0].Attr || steps[0].Text {
		return nil
	}
	v, root := fl.Clauses[0].Var, steps[0].Name
	for _, cl := range fl.Clauses[1:] {
		if cl.Var == v {
			return nil // rebound: a conjunct's $v is not the document
		}
	}
	var conjuncts []xquery.Expr
	xquery.Conjuncts(fl.Where, func(c xquery.Expr) { conjuncts = append(conjuncts, c) })
	pushed := make([][]xquery.Expr, len(frags))
	var rest []xquery.Expr
	for _, c := range conjuncts {
		i := deciderOf(c, v, meta, reads, frags)
		if i < 0 {
			rest = append(rest, c)
			continue
		}
		pushed[i] = append(pushed[i], c)
	}
	if len(rest) == len(conjuncts) {
		return nil
	}
	split := &whereSplit{filters: make([]xquery.Expr, len(frags))}
	for i, cs := range pushed {
		if cs == nil {
			continue
		}
		filter := &xquery.FLWOR{
			Clauses: []xquery.Clause{{Var: v, In: &xquery.PathExpr{
				Source: &xquery.CollectionCall{Name: meta.NodeCollection(frags[i].Name)},
				Steps:  []xquery.PathStep{{Name: root}},
			}}},
			Where:  conjoin(cs),
			Return: &xquery.VarRef{Name: v},
		}
		if _, ok := exec.CompileFilter(filter); !ok {
			return nil
		}
		split.filters[i] = filter
	}
	stripped := *fl
	stripped.Where = conjoin(rest)
	var residual xquery.Expr = &stripped
	if fold != "" {
		residual = &xquery.FuncCall{Name: fold, Args: []xquery.Expr{residual}}
	}
	if split.residual, ok = exec.Compile(residual); !ok {
		return nil
	}
	return split
}

// conjoin is the and of terms, left to right; nil for none.
func conjoin(terms []xquery.Expr) xquery.Expr {
	var out xquery.Expr
	for _, t := range terms {
		if out == nil {
			out = t
		} else {
			out = &xquery.Binary{Op: xquery.OpAnd, Left: out, Right: t}
		}
	}
	return out
}

// deciderOf returns the index of the fragment of frags that decides
// conjunct c of a query binding $v to the document roots of meta's
// collection, or -1 when none does. The paths c reads are the reads of
// the query's read set that lie in c.
func deciderOf(c xquery.Expr, v string, meta *CollectionMeta, reads xquery.Reads, frags []*fragmentation.Fragment) int {
	if reads.Unresolved || !readsOnlyVar(c, v) {
		return -1
	}
	var paths []xquery.Read
	for _, r := range reads.Paths {
		if r.Conjunct == c {
			paths = append(paths, r)
		}
	}
	if len(paths) == 0 {
		return -1
	}
	for i, f := range frags {
		if f.Kind == fragmentation.Vertical && ownsPaths(f, paths) &&
			(falseWithoutPart(c) || holdsAllDocuments(meta, f)) {
			return i
		}
	}
	return -1
}

// ownsPaths reports whether every read lies under f's projection path,
// clear of its prune paths: neither inside one nor above one (a value read
// there would miss the pruned content), and without a // step.
func ownsPaths(f *fragmentation.Fragment, reads []xquery.Read) bool {
	base := f.Labels
	for _, r := range reads {
		q, _, descendant := readLabels(r.Steps)
		if descendant || !labelsPrefix(base, q) {
			return false
		}
		for _, pl := range f.PruneLabels {
			if labelsPrefix(pl, q) || labelsPrefix(q, pl) {
				return false
			}
		}
	}
	return true
}

// readsOnlyVar reports whether c references no variable but v and the
// ones it binds itself, and no collection or document.
func readsOnlyVar(c xquery.Expr, v string) bool {
	bound := map[string]bool{v: true}
	ok := true
	xquery.Walk(c, func(x xquery.Expr) {
		switch y := x.(type) {
		case *xquery.FLWOR:
			for _, cl := range y.Clauses {
				bound[cl.Var] = true
			}
		case *xquery.Quantified:
			for _, cl := range y.Clauses {
				bound[cl.Var] = true
			}
		case *xquery.VarRef:
			ok = ok && bound[y.Name]
		case *xquery.CollectionCall, *xquery.DocCall:
			ok = false
		}
	})
	return ok
}

// falseWithoutPart reports whether conjunct c is false whenever the paths
// it reads select nothing: a general comparison of a path with a literal,
// contains/starts-with/ends-with of a path and a non-empty literal, or
// exists over a path.
func falseWithoutPart(c xquery.Expr) bool {
	switch x := c.(type) {
	case *xquery.Binary:
		if x.Op > xquery.OpGe {
			return false
		}
		return isPath(x.Left) && isLiteral(x.Right) || isLiteral(x.Left) && isPath(x.Right)
	case *xquery.FuncCall:
		switch x.Name {
		case "exists":
			return len(x.Args) == 1 && isPath(x.Args[0])
		case "contains", "starts-with", "ends-with":
			if len(x.Args) != 2 || !isPath(x.Args[0]) {
				return false
			}
			lit, ok := x.Args[1].(*xquery.StringLit)
			return ok && lit.Value != ""
		}
	}
	return false
}

func isPath(e xquery.Expr) bool {
	_, ok := e.(*xquery.PathExpr)
	return ok
}

func isLiteral(e xquery.Expr) bool {
	switch e.(type) {
	case *xquery.StringLit, *xquery.NumberLit:
		return true
	}
	return false
}
