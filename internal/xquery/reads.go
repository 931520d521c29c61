package xquery

// Read is one label path a query reads from a collection scan.
type Read struct {
	// Scan is the collection() call the path starts from.
	Scan *CollectionCall
	// Steps is the path's root-anchored label path. A // step, a * name
	// and a final attribute step are kept as written; a text() step adds
	// no label.
	Steps []LabelStep
	// Existence marks a path whose nodes need only exist: a for or let
	// binding, whose content is read where the variable is used, and the
	// step a positional filter counts.
	Existence bool
	// Filtered marks a read under a filter, and Context is the path the
	// innermost such filter is evaluated at:
	//   - a step predicate's context is the path up to and including its
	//     step;
	//   - a positional filter's context is the step's parent, whose
	//     children it counts;
	//   - a where conjunct's context is the binding path of the variable
	//     the read starts from (the document root for a collection()).
	// A filter nested inside another records its own context on the
	// paths it reads, so every enclosing filter's context is on some read.
	Filtered bool
	Context  []LabelStep
	// Conjunct is the top-level conjunct of the outermost where clause
	// the read lies in; nil outside any where clause.
	Conjunct Expr
}

// Reads is a query's read set: every label path it reads.
type Reads struct {
	Paths []Read
	// Unresolved is set when some path's source could not be traced back
	// to a scan (a variable bound to no path, doc(), a leading /) or some
	// expression is of a kind the walk does not know. The paths then do
	// not bound what the query reads.
	Unresolved bool
}

// ExtractReads derives the read set of a query. Variables bound by for,
// let and quantifier clauses to paths over a scan, directly or through
// earlier variables, resolve to root-anchored label paths the way hint
// constraints do (anchor.extend); a path is recorded as a whole, then
// each of its step predicates is walked with the step as context item.
//
// It walks the query once more than ExtractScanHints, so it runs where a
// plan is made, not on every node sub-query.
func ExtractReads(e Expr) Reads {
	var r Reads
	r.walk(e, readScope{})
	return r
}

// readScope is what the walk knows at an expression: the variables in
// scope, the context item inside a step predicate, the innermost filter
// and the where conjunct it lies in.
type readScope struct {
	vars map[string]anchor
	item *anchor
	// filter is the context of the innermost step predicate or
	// positional filter; where marks a where conjunct as the innermost
	// filter instead (its context depends on the read).
	filter *anchor
	where  bool
	conj   Expr
}

// source anchors what a path expression starts from: a scan, a variable,
// or the context item (the leading step of a relative path).
func (s readScope) source(e Expr) (anchor, bool) {
	switch x := e.(type) {
	case nil, *ContextItem:
		if s.item != nil {
			return *s.item, true
		}
	case *CollectionCall:
		return anchor{scan: x, ok: true}, true
	case *VarRef:
		a, ok := s.vars[x.Name]
		return a, ok
	}
	return anchor{}, false
}

// resolve anchors e when it is a path from a scan, a variable or the
// context item: base is what it starts from, a what it selects. A
// relative path's later steps have the path of its first step as source.
func (s readScope) resolve(e Expr) (base, a anchor, ok bool) {
	if p, isPath := e.(*PathExpr); isPath {
		base, a, ok = s.resolve(p.Source)
		return base, a.extend(p.Steps), ok
	}
	base, ok = s.source(e)
	return base, base, ok
}

// bind walks the binding clauses of a FLWOR or quantifier: each records
// the path it ranges over and binds its variable in the returned scope
// (or shadows it, when the path does not resolve).
func (r *Reads) bind(clauses []Clause, existence bool, s readScope) readScope {
	vars := make(map[string]anchor, len(s.vars)+len(clauses))
	for k, v := range s.vars {
		vars[k] = v
	}
	s.vars = vars
	for _, cl := range clauses {
		if base, a, ok := s.resolve(cl.In); ok {
			r.record(base, a, existence, s)
			r.preds(cl.In, s)
			vars[cl.Var] = a
		} else {
			r.walk(cl.In, s)
			delete(vars, cl.Var)
		}
	}
	return s
}

func (r *Reads) record(base, a anchor, existence bool, s readScope) {
	rd := Read{Scan: a.scan, Steps: a.steps, Existence: existence, Conjunct: s.conj}
	switch {
	case s.where:
		rd.Filtered, rd.Context = true, base.steps
	case s.filter != nil:
		rd.Filtered, rd.Context = true, s.filter.steps
	}
	r.Paths = append(r.Paths, rd)
}

// preds walks the step predicates of a resolved path. A predicate is
// evaluated at its step; a positional filter counts the step's nodes
// under their parent.
func (r *Reads) preds(e Expr, s readScope) {
	p, ok := e.(*PathExpr)
	if !ok {
		return
	}
	r.preds(p.Source, s)
	_, from, _ := s.resolve(p.Source)
	for si, st := range p.Steps {
		if len(st.Preds) == 0 {
			continue
		}
		ctx := from.extend(p.Steps[:si+1])
		ps := s
		ps.item, ps.where = &ctx, false
		for _, pred := range st.Preds {
			if _, positional := pred.(*NumberLit); positional {
				parent := from.extend(p.Steps[:si])
				ps.filter = &parent
				r.record(from, ctx, true, ps)
				continue
			}
			ps.filter = &ctx
			r.walk(pred, ps)
		}
	}
}

func (r *Reads) walk(e Expr, s readScope) {
	switch x := e.(type) {
	case nil:
	case *FLWOR:
		s = r.bind(x.Clauses, true, s)
		if x.Where != nil {
			Conjuncts(x.Where, func(c Expr) {
				cs := s
				cs.filter, cs.where = nil, true
				if cs.conj == nil {
					cs.conj = c
				}
				r.walk(c, cs)
			})
		}
		for _, o := range x.OrderBy {
			r.walk(o.Key, s)
		}
		r.walk(x.Return, s)
	case *Quantified:
		s = r.bind(x.Clauses, false, s) // the quantifier inspects the values
		r.walk(x.Satisfies, s)
	case *PathExpr:
		if base, a, ok := s.resolve(x); ok {
			r.record(base, a, false, s)
			r.preds(x, s)
			return
		}
		r.Unresolved = true
		r.walk(x.Source, s)
		s.item = nil
		for _, st := range x.Steps {
			for _, p := range st.Preds {
				r.walk(p, s)
			}
		}
	case *CollectionCall, *VarRef, *ContextItem:
		// A bare scan, variable or context item reads its whole nodes.
		if base, a, ok := s.resolve(x); ok {
			r.record(base, a, false, s)
		}
	case *Binary:
		r.walk(x.Left, s)
		r.walk(x.Right, s)
	case *FuncCall:
		for _, arg := range x.Args {
			r.walk(arg, s)
		}
	case *Sequence:
		for _, it := range x.Items {
			r.walk(it, s)
		}
	case *ElementCtor:
		for _, at := range x.Attrs {
			r.walk(at.Value, s)
		}
		for _, ch := range x.Children {
			r.walk(ch, s)
		}
	case *IfExpr:
		r.walk(x.Cond, s)
		r.walk(x.Then, s)
		r.walk(x.Else, s)
	case *StringLit, *NumberLit, *TextLit, *DocCall:
	default:
		r.Unresolved = true
	}
}
