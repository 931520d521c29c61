package partix

import (
	"slices"
	"strings"

	"partix/internal/fragmentation"
	"partix/internal/xpath"
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
	p := pathLabels(f.Path)
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
	p := pathLabels(f.Path)
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
