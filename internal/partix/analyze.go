package partix

import (
	"slices"
	"strings"

	"partix/internal/fragmentation"
	"partix/internal/xpath"
	"partix/internal/xquery"
)

// queryPath is one label path the query navigates in a collection,
// relative to the collection's document roots.
type queryPath struct {
	collection string
	labels     []string // element labels; "*" is a wildcard
	attr       string   // non-empty when the path ends in an attribute step
	descendant bool     // the path uses //: fragment analysis must be conservative
	// existence marks a for-binding path: the query only needs the nodes
	// to exist to drive iteration, not their whole subtrees. An existence
	// path above a fragment's projection root is answerable by the spine,
	// but only if the fragment is guaranteed to hold every document.
	existence bool
}

// analysis is the label paths a query navigates: what vertical
// relevance and the semi-join need to know about a query. The
// constraints fragment pruning reads come from xquery.ExtractScanHints.
type analysis struct {
	paths []queryPath
	// unresolved is set when some path expression's source could not be
	// traced back to a collection. Fragment relevance must then be
	// conservative: every fragment is considered touched.
	unresolved bool
}

// analyzeQuery extracts the label paths of a query. Variables bound
// (directly or transitively) to collection-rooted paths are resolved to
// absolute label paths; anything it cannot resolve is recorded
// conservatively (a descendant-marked path over the collection).
func analyzeQuery(e xquery.Expr) *analysis {
	a := &analysis{}
	vars := map[string]queryPath{}
	a.walk(e, vars, nil)
	return a
}

// walk descends the AST. ctxPath carries the context path inside step
// predicates (nil at expression level).
func (a *analysis) walk(e xquery.Expr, vars map[string]queryPath, ctxPath *queryPath) {
	switch x := e.(type) {
	case nil:
		return
	case *xquery.FLWOR:
		scope := copyVars(vars)
		for _, cl := range x.Clauses {
			if qp, ok := a.resolvePath(cl.In, scope, ctxPath); ok {
				// The binding itself only requires existence; content use
				// is recorded where the variable is consumed.
				bind := qp
				bind.existence = true
				a.record(bind)
				if pe, isPath := cl.In.(*xquery.PathExpr); isPath {
					a.predsOf(pe, scope, ctxPath)
				}
				scope[cl.Var] = qp
			} else {
				a.walk(cl.In, scope, ctxPath)
				delete(scope, cl.Var)
			}
		}
		a.walk(x.Where, scope, ctxPath)
		for _, o := range x.OrderBy {
			a.walk(o.Key, scope, ctxPath)
		}
		a.walk(x.Return, scope, ctxPath)
	case *xquery.PathExpr:
		if qp, ok := a.resolvePath(x, vars, ctxPath); ok {
			a.record(qp)
			a.predsOf(x, vars, ctxPath)
		} else {
			a.unresolved = true
			a.walk(x.Source, vars, ctxPath)
			for _, st := range x.Steps {
				for _, p := range st.Preds {
					a.walk(p, vars, ctxPath)
				}
			}
		}
	case *xquery.Binary:
		a.walk(x.Left, vars, ctxPath)
		a.walk(x.Right, vars, ctxPath)
	case *xquery.FuncCall:
		for _, arg := range x.Args {
			a.walk(arg, vars, ctxPath)
		}
	case *xquery.Sequence:
		for _, it := range x.Items {
			a.walk(it, vars, ctxPath)
		}
	case *xquery.ElementCtor:
		for _, at := range x.Attrs {
			a.walk(at.Value, vars, ctxPath)
		}
		for _, ch := range x.Children {
			a.walk(ch, vars, ctxPath)
		}
	case *xquery.VarRef:
		// A bare variable consumes the whole subtrees it is bound to.
		if qp, ok := vars[x.Name]; ok {
			a.record(qp)
		}
	case *xquery.CollectionCall:
		// A bare collection() returns whole documents.
		a.record(queryPath{collection: x.Name})
	case *xquery.IfExpr:
		a.walk(x.Cond, vars, ctxPath)
		a.walk(x.Then, vars, ctxPath)
		a.walk(x.Else, vars, ctxPath)
	case *xquery.Quantified:
		scope := copyVars(vars)
		for _, cl := range x.Clauses {
			if qp, ok := a.resolvePath(cl.In, scope, ctxPath); ok {
				a.record(qp) // content use: the quantifier inspects values
				scope[cl.Var] = qp
			} else {
				a.walk(cl.In, scope, ctxPath)
				delete(scope, cl.Var)
			}
		}
		a.walk(x.Satisfies, scope, ctxPath)
	case *xquery.StringLit, *xquery.NumberLit, *xquery.TextLit,
		*xquery.ContextItem, *xquery.DocCall:
		// Leaves without collection paths.
	default:
		// An expression kind this analyzer does not understand: fragment
		// relevance cannot be bounded, fall back to touching everything.
		a.unresolved = true
	}
}

// resolvePath turns a path expression into an absolute queryPath when its
// source is a collection, a resolvable variable, or the predicate context.
func (a *analysis) resolvePath(e xquery.Expr, vars map[string]queryPath, ctxPath *queryPath) (queryPath, bool) {
	switch x := e.(type) {
	case *xquery.CollectionCall:
		return queryPath{collection: x.Name}, true
	case *xquery.VarRef:
		qp, ok := vars[x.Name]
		return qp, ok
	case *xquery.ContextItem:
		if ctxPath != nil {
			return *ctxPath, true
		}
		return queryPath{}, false
	case *xquery.PathExpr:
		base, ok := a.resolveSource(x.Source, vars, ctxPath)
		if !ok {
			return queryPath{}, false
		}
		cur := base
		for _, st := range x.Steps {
			cur = extendPath(cur, st)
			// Step predicates are analyzed by the caller when needed; for
			// resolution purposes they do not change the path.
		}
		return cur, true
	default:
		return queryPath{}, false
	}
}

func (a *analysis) resolveSource(src xquery.Expr, vars map[string]queryPath, ctxPath *queryPath) (queryPath, bool) {
	switch s := src.(type) {
	case nil:
		if ctxPath != nil {
			return *ctxPath, true
		}
		return queryPath{}, false
	case *xquery.CollectionCall:
		return queryPath{collection: s.Name}, true
	case *xquery.VarRef:
		qp, ok := vars[s.Name]
		return qp, ok
	case *xquery.PathExpr:
		return a.resolvePath(s, vars, ctxPath)
	default:
		return queryPath{}, false
	}
}

// predsOf analyzes the step predicates of a resolved path, threading the
// correct context path (the path up to and including the step) into each.
func (a *analysis) predsOf(pe *xquery.PathExpr, vars map[string]queryPath, ctxPath *queryPath) {
	cur, ok := a.resolveSource(pe.Source, vars, ctxPath)
	if !ok {
		return
	}
	for _, st := range pe.Steps {
		cur = extendPath(cur, st)
		for _, p := range st.Preds {
			a.walk(p, vars, &cur)
		}
	}
}

func (a *analysis) record(qp queryPath) {
	if qp.collection == "" {
		return
	}
	a.paths = append(a.paths, qp)
}

func extendPath(base queryPath, st xquery.PathStep) queryPath {
	out := queryPath{
		collection: base.collection,
		labels:     append([]string(nil), base.labels...),
		attr:       base.attr,
		descendant: base.descendant || st.Descendant,
	}
	switch {
	case st.Text:
		// text() does not change the element path.
	case st.Attr:
		out.attr = st.Name
	default:
		out.labels = append(out.labels, st.Name)
	}
	return out
}

func copyVars(in map[string]queryPath) map[string]queryPath {
	out := make(map[string]queryPath, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// --- fragment relevance ---

// labelsPrefix reports whether a is a label-prefix of b, treating "*" as
// matching any label.
func labelsPrefix(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && a[i] != "*" && b[i] != "*" {
			return false
		}
	}
	return true
}

func pathLabels(p *xpath.Path) []string {
	if p == nil {
		return nil // a horizontal fragment: whole documents
	}
	out := make([]string, 0, len(p.Steps))
	for _, st := range p.Steps {
		if st.Attr {
			break
		}
		out = append(out, st.Name)
	}
	return out
}

// touchesFragment reports whether a query path needs content owned by a
// vertical/hybrid fragment. Spine-only paths — an ancestor's attribute, or
// the mere existence of an ancestor element (a for-binding) — do not
// count: the fragment's replicated spine answers them.
func touchesFragment(f *fragmentation.Fragment, qp queryPath) bool {
	if qp.descendant {
		return true // cannot bound a // path statically
	}
	if len(qp.labels) == 0 && qp.attr == "" {
		return true // whole documents
	}
	p := pathLabels(f.Path)
	q := qp.labels
	for _, g := range f.Prune {
		if labelsPrefix(pathLabels(g), q) {
			return false // the query path lives in a pruned subtree
		}
	}
	if labelsPrefix(p, q) {
		return true // inside the owned subtree (existence or content)
	}
	if labelsPrefix(q, p) && len(q) < len(p) {
		// The query reaches a strict ancestor of the fragment root:
		// consuming the element's whole subtree needs this fragment;
		// an attribute or a bare existence test is served by the spine.
		return qp.attr == "" && !qp.existence
	}
	return false
}

// ancestorExistenceOf reports whether the analysis has an existence path
// strictly above the fragment's projection root. Routing to the fragment
// is then only sound when the fragment holds every document of the
// collection (documents where the projection selects nothing are absent
// from the fragment, and their bindings would be lost).
func ancestorExistenceOf(an *analysis, collection string, f *fragmentation.Fragment) bool {
	p := pathLabels(f.Path)
	for _, qp := range an.paths {
		if qp.collection != collection || !qp.existence || qp.descendant {
			continue
		}
		if len(qp.labels) < len(p) && labelsPrefix(qp.labels, p) {
			return true
		}
	}
	return false
}

// contradictsPredicate reports whether the hint of the query's scan makes
// a fragment's selection predicate unsatisfiable, so the fragment can be
// skipped. Only document-level predicates built from conjunctions and
// disjunctions of = and != comparisons and negated contains() are
// analyzed, and only over paths with no wildcard, // or attribute step on
// either side; anything else keeps the fragment.
//
// absBase is prepended to the fragment predicate's paths: for a hybrid
// fragment π(P) • σ(μ) the predicate is evaluated on P's children, so its
// absolute path is P's labels plus the predicate path's labels.
func contradictsPredicate(pred xpath.Predicate, absBase []string, hint *xquery.Hint) bool {
	if hint == nil {
		return false
	}
	switch p := pred.(type) {
	case *xpath.And:
		for _, t := range p.Terms {
			if contradictsPredicate(t, absBase, hint) {
				return true
			}
		}
		return false
	case *xpath.Or:
		// A disjunction is unsatisfiable only if every branch is.
		if len(p.Terms) == 0 {
			return false
		}
		for _, t := range p.Terms {
			if !contradictsPredicate(t, absBase, hint) {
				return false
			}
		}
		return true
	case *xpath.Comparison:
		fp, ok := plainPredicatePath(absBase, p.Path)
		if !ok || (p.Op != xpath.OpEq && p.Op != xpath.OpNe) {
			return false
		}
		v := xquery.PrepOperand(p.Value)
		for _, c := range hint.Constraints {
			if c.Path == nil || c.Path.Op != xquery.CmpEq || !labelsEqual(fp, c.Path.Steps) {
				continue
			}
			// The query requires some node on this path to equal the
			// literal under the evaluator's comparison. The fragmentation
			// path is single-valued (the scheme's schema check enforces it),
			// so that node's value is the one σ tests: a fragment needing
			// it = V contradicts a literal unequal to V, one needing != V a
			// literal equal to V.
			eq := xquery.CompareOperands(xquery.OpEq, v, xquery.PrepOperand(c.Path.Literal))
			if eq == (p.Op == xpath.OpNe) {
				return true
			}
		}
		return false
	case *xpath.Not:
		// not(contains(path, s)): contradicted by a query constraint
		// contains(path, s') when s' contains s (any text with s' also
		// has s).
		inner, ok := p.Inner.(*xpath.Contains)
		if !ok {
			return false
		}
		fp, ok := plainPredicatePath(absBase, inner.Path)
		if !ok {
			return false
		}
		for _, c := range hint.Constraints {
			if c.Contains != nil && labelsEqual(fp, c.Contains.Steps) &&
				strings.Contains(c.Contains.Needle, inner.Needle) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// plainPredicatePath is the absolute element labels of a fragment
// predicate's path, when neither absBase nor the path has a wildcard, //
// or attribute step.
func plainPredicatePath(absBase []string, p *xpath.Path) ([]string, bool) {
	out := append([]string(nil), absBase...)
	for _, st := range p.Steps {
		if st.Axis != xpath.Child || st.Attr {
			return nil, false
		}
		out = append(out, st.Name)
	}
	for _, l := range out {
		if l == "*" {
			return nil, false
		}
	}
	return out, true
}

// labelsEqual reports whether a query constraint's label path is exactly
// the given element labels.
func labelsEqual(labels []string, steps []xquery.LabelStep) bool {
	plain, ok := xquery.PlainLabels(steps)
	return ok && slices.Equal(labels, plain)
}

func sameLabels(a, b []string) bool {
	return len(a) == len(b) && labelsPrefix(a, b)
}
