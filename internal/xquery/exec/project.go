package exec

import (
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Projection: the part of each scanned document a compiled pipeline can
// read, derived from the pipeline itself and carried to the scan as
// xquery.Hint.Keep, so a Source decoding stored records may build only
// that part.
//
// The trie starts at the root element the first scan step names. Scan
// steps and for-clause paths extend it; a native where-term, an order key
// and the return value mark the node they read whole — except that a
// count/exists/empty fold only counts returned items, so there the return
// value merely has to exist. Anything the rules cannot see through needs
// the whole document: an interpreter fallback, a let clause, a // or *
// step, an attribute or text() step, or a scan that can bind the document
// wrapper itself.

// project attaches the pipeline's projection to its scan hint.
func (p *pipeline) project(fold foldKind) {
	keep := p.projection(fold)
	if keep == nil {
		return
	}
	h := xquery.Hint{Keep: keep}
	if p.hint != nil {
		h.Constraints = p.hint.Constraints
	}
	p.hint = &h
}

// projection derives the trie, or nil when the query needs whole
// documents.
func (p *pipeline) projection(fold foldKind) *xmltree.Projection {
	if len(p.scanSteps) == 0 {
		return nil
	}
	pj := projector{ok: true}
	root := &xmltree.Projection{}
	pj.step(root, &p.scanSteps[0])
	slots := make([]*xmltree.Projection, p.stride) // nil: the slot holds an atomic value
	slots[0] = pj.path(root, p.scanSteps[1:])
	for _, cl := range p.clauses {
		if cl.let {
			return nil
		}
		slots[cl.slot] = pj.value(slots, cl.src, false)
	}
	for _, ft := range p.filter {
		if ft.native == nil {
			return nil
		}
		pj.term(slots[ft.native.slot], ft.native)
	}
	for _, k := range p.orderBy {
		pj.value(slots, k.key, true)
	}
	countsOnly := fold == foldCount || fold == foldExists || fold == foldEmpty
	pj.value(slots, p.ret, !countsOnly)
	if !pj.ok || root.Whole() {
		return nil
	}
	return root
}

// projector accumulates the trie; ok turns false at the first shape the
// rules cannot see through.
type projector struct {
	ok bool
}

// step checks that a step names one element child and marks what its
// predicates read, relative to the step's own trie node t.
func (pj *projector) step(t *xmltree.Projection, st *step) {
	if st.descendant || st.attr || st.text || st.name == "*" {
		pj.ok = false
		return
	}
	for i := range st.preds {
		switch pd := &st.preds[i]; pd.kind {
		case predPositional: // counts same-named siblings, all of which are kept
		case predTerm:
			pj.term(t, pd.term)
		default:
			pj.ok = false
		}
	}
}

// path extends the trie from base along child steps and returns the trie
// node of their target (nil for an atomic base: the walk is a run-time
// error either way).
func (pj *projector) path(base *xmltree.Projection, steps []step) *xmltree.Projection {
	t := base
	for i := range steps {
		if t == nil || !pj.ok {
			return t
		}
		t = t.Add(steps[i].name)
		pj.step(t, &steps[i])
	}
	return t
}

// term marks whole the nodes a native term reads from base.
func (pj *projector) term(base *xmltree.Projection, t *term) {
	if target := pj.path(base, t.rel); target != nil {
		target.KeepWhole()
	}
}

// value extends the trie along a value expression's path and, when read
// is set, marks the node it yields whole. It returns that node's trie
// (nil when the value is atomic).
func (pj *projector) value(slots []*xmltree.Projection, ve valueExpr, read bool) *xmltree.Projection {
	var target *xmltree.Projection
	switch ve.kind {
	case veSlot:
		target = slots[ve.slot]
	case vePath:
		target = pj.path(slots[ve.slot], ve.rel)
	case veCount:
		pj.path(slots[ve.slot], ve.rel) // the nodes are counted, never read
		return nil
	case veLit:
		return nil
	default:
		pj.ok = false
		return nil
	}
	if read && target != nil {
		target.KeepWhole()
	}
	return target
}
