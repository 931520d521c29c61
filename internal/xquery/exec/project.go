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
//
// In a stream of nodes the return value is marked shipped instead: whole
// to every reader, but a Shipper, whose consumer ships each returned
// node as its stored bytes, scans under the trie read WithShells, so it
// may build each returned node as a shell holding only the children the
// pipeline reads. An order by keeps every tuple to the end of the scan,
// past the records a Shipper holds, so it ships nothing; nor does a
// fold, which returns no nodes.

// Shipper is a Source whose consumer ships the stored nodes a stream
// returns as their record bytes, holding the records of only the chunk
// of documents it decoded last.
type Shipper interface {
	xquery.Source
	// ShipDocs is Docs under a hint whose projection is read WithShells.
	// It calls pending.Flush before it drops the records of the chunk it
	// decoded last, so the pipeline hands on every shell while its bytes
	// are held.
	ShipDocs(collection string, hint *xquery.Hint, fn func(*xmltree.Document) error, pending Flusher) error
}

// Flusher is a pipeline's pending output, which a Shipper flushes.
type Flusher interface {
	Flush() error
}

// shippedHint is a hint and the shipped projection root it points at.
type shippedHint struct {
	hint xquery.Hint
	keep xmltree.Projection
}

// project attaches the pipeline's projection to its scan hint and, when
// the pipeline returns nodes to ship, the projection read WithShells to
// shipHint.
func (p *pipeline) project(fold foldKind) {
	keep, shipped := p.projection(fold)
	if shipped {
		p.shipped.keep = *keep.WithShells()
		p.shipped.hint = p.withKeep(&p.shipped.keep)
		p.shipHint = &p.shipped.hint
	}
	if !keep.Whole() {
		h := p.withKeep(keep)
		p.hint = &h
	}
}

// withKeep returns the scan hint with keep as its projection.
func (p *pipeline) withKeep(keep *xmltree.Projection) xquery.Hint {
	h := xquery.Hint{Keep: keep}
	if p.hint != nil {
		h.Constraints, h.Complete = p.hint.Constraints, p.hint.Complete
	}
	return h
}

// projection derives the trie, nil when the query needs whole documents,
// and reports whether it marked the return value shipped.
func (p *pipeline) projection(fold foldKind) (*xmltree.Projection, bool) {
	if len(p.scanSteps) == 0 {
		return nil, false
	}
	pj := projector{ok: true}
	root := &xmltree.Projection{}
	pj.step(root, &p.scanSteps[0])
	slots := make([]*xmltree.Projection, p.stride) // nil: the slot holds an atomic value
	slots[0] = pj.path(root, p.scanSteps[1:])
	for _, cl := range p.clauses {
		if cl.let {
			return nil, false
		}
		slots[cl.slot] = pj.value(slots, cl.src, false)
	}
	for _, ft := range p.filter {
		if ft.native == nil {
			return nil, false
		}
		pj.term(slots[ft.native.slot], ft.native)
	}
	for _, k := range p.orderBy {
		pj.value(slots, k.key, true)
	}
	ship := fold == foldNone && len(p.orderBy) == 0
	countsOnly := fold == foldCount || fold == foldExists || fold == foldEmpty
	target := pj.value(slots, p.ret, !countsOnly && !ship)
	shipped := ship && target != nil && target.Ship()
	if !pj.ok {
		return nil, false
	}
	return root, shipped
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
