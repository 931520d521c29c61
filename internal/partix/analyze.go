package partix

import (
	"slices"
	"strings"

	"partix/internal/fragmentation"
	"partix/internal/xquery"
)

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

// readLabels is the label view of a root-anchored path the fragment
// tests compare: its element labels ("*" a wildcard), the name of a final
// attribute step, and whether any step is a // step.
func readLabels(steps []xquery.LabelStep) (labels []string, attr string, descendant bool) {
	labels = make([]string, 0, len(steps))
	for _, st := range steps {
		descendant = descendant || st.Descendant
		if st.Attr {
			attr = st.Name
			continue
		}
		labels = append(labels, st.Name)
	}
	return labels, attr, descendant
}

// touchesFragment reports whether a read needs content owned by a
// vertical/hybrid fragment. Spine-only reads — an ancestor's attribute, or
// the mere existence of an ancestor element (a for-binding), the document
// node's included — do not count: the fragment's replicated spine answers
// them, and ancestorExistenceOf decides whether routing past such a
// binding is sound.
func touchesFragment(f *fragmentation.Fragment, r xquery.Read) bool {
	q, attr, descendant := readLabels(r.Steps)
	if descendant {
		return true // cannot bound a // path statically
	}
	if len(q) == 0 && attr == "" && !r.Existence {
		return true // whole documents
	}
	p := f.Labels
	for _, g := range f.PruneLabels {
		if labelsPrefix(g, q) {
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
		return attr == "" && !r.Existence
	}
	return false
}

// ancestorExistenceOf reports whether the query has an existence read
// strictly above the fragment's projection root. Routing to the fragment
// is then only sound when the fragment holds every document of the
// collection (documents where the projection selects nothing are absent
// from the fragment, and their bindings would be lost).
func ancestorExistenceOf(reads []xquery.Read, collection string, f *fragmentation.Fragment) bool {
	p := f.Labels
	for _, r := range reads {
		if r.Scan.Name != collection || !r.Existence {
			continue
		}
		q, _, descendant := readLabels(r.Steps)
		if !descendant && len(q) < len(p) && labelsPrefix(q, p) {
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
func contradictsPredicate(pred xquery.Expr, absBase []string, hint *xquery.Hint) bool {
	if hint == nil {
		return false
	}
	switch p := pred.(type) {
	case *xquery.Binary:
		switch p.Op {
		case xquery.OpAnd:
			return contradictsPredicate(p.Left, absBase, hint) || contradictsPredicate(p.Right, absBase, hint)
		case xquery.OpOr:
			// A disjunction is unsatisfiable only if every branch is.
			return contradictsPredicate(p.Left, absBase, hint) && contradictsPredicate(p.Right, absBase, hint)
		}
		if p.Op != xquery.OpEq && p.Op != xquery.OpNe {
			return false
		}
		path, ok := p.Left.(*xquery.PathExpr)
		lit, isLit := p.Right.(*xquery.StringLit)
		if !ok || !isLit {
			return false
		}
		fp, ok := plainPredicatePath(absBase, path)
		if !ok {
			return false
		}
		v := xquery.PrepOperand(lit.Value)
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
			if eq == (p.Op == xquery.OpNe) {
				return true
			}
		}
		return false
	case *xquery.FuncCall:
		// not(contains(path, s)): contradicted by a query constraint
		// contains(path, s') when s' contains s (any text with s' also
		// has s).
		if p.Name != "not" || len(p.Args) != 1 {
			return false
		}
		inner, ok := p.Args[0].(*xquery.FuncCall)
		if !ok || inner.Name != "contains" || len(inner.Args) != 2 {
			return false
		}
		path, ok := inner.Args[0].(*xquery.PathExpr)
		needle, isLit := inner.Args[1].(*xquery.StringLit)
		if !ok || !isLit {
			return false
		}
		fp, ok := plainPredicatePath(absBase, path)
		if !ok {
			return false
		}
		for _, c := range hint.Constraints {
			if c.Contains != nil && labelsEqual(fp, c.Contains.Steps) &&
				strings.Contains(c.Contains.Needle, needle.Value) {
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
func plainPredicatePath(absBase []string, p *xquery.PathExpr) ([]string, bool) {
	out := append([]string(nil), absBase...)
	for _, st := range p.Steps {
		if st.Descendant || st.Attr {
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
