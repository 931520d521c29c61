package xquery

import (
	"strings"

	"partix/internal/xmltree"
)

// Hint is a conjunction of constraints a document must satisfy to
// possibly contribute to a query's result. The engine evaluates hints
// against its indexes to prune candidate documents before decoding them
// (this is the "indexes … to speed up text search operations" behaviour
// of eXist the paper relies on). Hints are always a NECESSARY condition;
// they are also sufficient only where Complete says so.
type Hint struct {
	Constraints []Constraint
	// Complete reports that every conjunct that may filter the scan's
	// bindings became one of Constraints with a root-anchored Path, and
	// that every binding path has a label path: the analysis dropped
	// nothing. Whether the Paths then decide a fold is the compiled
	// program's call (exec.Program.Decides), whether the indexes answer
	// them exactly the engine's.
	Complete bool
	// Keep, when non-nil, is the part of each document the query reads
	// (derived by the compiled executor from its plan). A Source may
	// ignore it: handing out whole documents is always correct.
	Keep *xmltree.Projection
}

// Constraint is one conjunct.
type Constraint struct {
	// Tokens non-empty: the document must contain every listed token
	// (derived from `path = "literal"` with a string literal that is no
	// number: a node value equal to the literal necessarily contributes
	// all the literal's tokens).
	Tokens []string
	// Substring non-empty: the document must contain some token having
	// this substring (derived from contains(path, "literal") with a purely
	// alphanumeric literal; a substring match within a text always lands
	// inside a single token then).
	Substring string
	// Path non-nil: the document must contain a node whose root-to-node
	// label path matches Path.Steps and — for the comparison ops — whose
	// string value compares true against Path.Literal under the
	// evaluator's general-comparison semantics. Derived from scan-rooted
	// and binding paths and positive existence tests (CmpExists: a
	// document lacking the path yields no nodes or bindings and so no
	// output) and from equality/range terms; evaluated against the
	// engine's path summary — the counterpart of eXist's "indexes … to
	// speed up path expressions evaluation" — and typed value index.
	Path *PathConstraint
	// Contains non-nil: the document must contain a node at
	// Contains.Steps whose string value contains Contains.Needle (case
	// kept). Derived from contains(path, "literal"); fragment pruning, the
	// workload profiler and the design advisor read it, the engine's
	// indexes do not (Substring is their form of the same term).
	Contains *ContainsConstraint
}

// ContainsConstraint is a contains(path, "needle") term over a
// root-anchored label path.
type ContainsConstraint struct {
	Steps  []LabelStep
	Needle string
}

// CmpOp is the comparison a PathConstraint carries.
type CmpOp uint8

// Comparison operators of path constraints. CmpExists asserts the path
// exists without testing its value.
const (
	CmpExists CmpOp = iota
	CmpEq
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = map[CmpOp]string{
	CmpExists: "exists", CmpEq: "=", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">=",
}

// String returns the operator's surface syntax.
func (o CmpOp) String() string { return cmpNames[o] }

// LabelStep is one component of a label-path pattern: it matches a node
// label (element or attribute name) on the root-to-node path. Descendant
// mirrors the evaluator's // axis, which walks the subtree including the
// context node itself, so a descendant step may also match without
// consuming a new path component.
type LabelStep struct {
	Descendant bool
	Name       string // "*" matches any name
	Attr       bool
}

// PathConstraint qualifies a constraint by a root-to-node label path.
// Soundness: a term `$v/p OP lit` being true for some binding requires
// SOME node at the (binding + term) label path whose value satisfies OP —
// the constraint never claims which node, so it stays a necessary
// condition even when the binding path carries extra predicates.
type PathConstraint struct {
	Steps   []LabelStep
	Op      CmpOp
	Literal string // comparison operand; unused for CmpExists
	Numeric bool   // Literal was written as a number, not a string
}

// Tokenize splits text into lowercase alphanumeric tokens — the exact
// tokenization the engine's inverted index uses; keeping them identical is
// what makes hints sound.
func Tokenize(text string) []string {
	var out []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			out = append(out, strings.ToLower(text[start:end]))
			start = -1
		}
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(text))
	return out
}

func isAlphanumeric(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')) {
			return false
		}
	}
	return true
}

// Hints is a query's pruning analysis: one hint per collection scan,
// keyed by the collection() call the scan starts from. Every scan of the
// query has an entry, possibly with no constraints.
type Hints map[*CollectionCall]*Hint

// ExtractScanHints derives a sound document-pruning hint for every
// collection scan of a query. A scan's documents reach the result only
// through the expression that reads the scan, so constraints are taken
// from the positions that are necessary there:
//
//   - the steps and step predicates of a path rooted at the scan
//     (collection("c")/Item[Section = "CD"]), wherever the path sits;
//   - the where-clause conjuncts of a FLWOR over a for-variable bound to
//     the scan, directly or through an earlier for-variable of the same
//     FLWOR ($j in $i/Sub), and the steps and step predicates of such a
//     nested binding path.
//
// A conjunct yields a constraint when it compares a path against a
// literal (equality gives token and path constraints, <, <=, >, >= give
// path constraints), calls contains(path, "literal") or tests a path's
// existence. Terms under not(), or, !=, any other function, and paths
// carrying step predicates of their own are ignored, and so make the
// scans they may filter incomplete (Hint.Complete), as does a term or
// binding path that yields no root-anchored Path (contains) or whose
// Path names a text()'s element rather than the text.
func ExtractScanHints(e Expr) Hints {
	h := Hints{}
	Walk(e, func(x Expr) {
		switch x := x.(type) {
		case *CollectionCall:
			h.add(x, nil)
		case *PathExpr:
			if cc, ok := x.Source.(*CollectionCall); ok {
				h.addPath(anchor{scan: cc, ok: true}, x.Steps)
			}
		}
	})
	// A second walk adds the where clauses and nested bindings, so a
	// scan's hint lists its binding path's constraints first.
	Walk(e, func(x Expr) {
		if f, ok := x.(*FLWOR); ok {
			h.addFLWOR(f)
		}
	})
	return h
}

// ExtractHints is ExtractScanHints by collection name: each collection
// the query scans once gets that scan's hint. A collection scanned more
// than once gets none, as one scan's constraints say nothing about the
// documents another scan needs.
func ExtractHints(e Expr) map[string]*Hint {
	h := ExtractScanHints(e)
	out := map[string]*Hint{}
	for cc := range h {
		if hint := h.Collection(cc.Name); hint != nil {
			out[cc.Name] = hint
		}
	}
	return out
}

// Scan returns the hint of the scan e starts from: e is a collection()
// call or a path rooted at one. It is nil for any other expression.
func (h Hints) Scan(e Expr) *Hint {
	if p, ok := e.(*PathExpr); ok {
		e = p.Source
	}
	cc, _ := e.(*CollectionCall)
	return h[cc]
}

// Collection returns the hint of the named collection's only scan; nil
// when the query scans it more than once or not at all.
func (h Hints) Collection(name string) *Hint {
	var only *Hint
	for cc, hint := range h {
		if cc.Name != name {
			continue
		}
		if only != nil {
			return nil
		}
		only = hint
	}
	return only
}

// add records a constraint on a scan's hint (none with c nil), creating
// the hint complete.
func (h Hints) add(scan *CollectionCall, c *Constraint) *Hint {
	hint := h[scan]
	if hint == nil {
		hint = &Hint{Complete: true}
		h[scan] = hint
	}
	if c != nil {
		hint.Constraints = append(hint.Constraints, *c)
	}
	return hint
}

// keep records c on the scan when there is one (ok), and marks the
// scan's hint incomplete unless c has a root-anchored Path over an anchor
// labelled at every step (a.ok): the analysis that drops a conjunct, or
// keeps it only as a necessary condition, says so.
func (h Hints) keep(scan *CollectionCall, a anchor, c Constraint, ok bool) {
	if ok {
		h.add(scan, &c)
	}
	if !ok || c.Path == nil || !a.ok {
		h.add(scan, nil).Complete = false
	}
}

// anchor is a node set the relative paths of a term extend: the scan it
// reads and its root-anchored label path (ok false when some step, such
// as text(), has no label; steps then leaves that step out).
type anchor struct {
	scan  *CollectionCall
	steps []LabelStep
	ok    bool
}

func (a anchor) extend(steps []PathStep) anchor {
	ls, ok := toLabelSteps(steps)
	if len(a.steps) > 0 {
		ls = append(a.steps[:len(a.steps):len(a.steps)], ls...)
	}
	return anchor{scan: a.scan, steps: ls, ok: a.ok && ok}
}

// addPath records what a path from a requires of a's scan: its label
// path, and the conjuncts of each step predicate, whose relative paths
// extend the path up to and including that step.
func (h Hints) addPath(a anchor, steps []PathStep) {
	end := a.extend(steps)
	c, ok := existence(end)
	h.keep(a.scan, end, c, ok)
	for si, st := range steps {
		if len(st.Preds) == 0 {
			continue
		}
		ctx := a.extend(steps[:si+1])
		for _, p := range st.Preds {
			Conjuncts(p, func(term Expr) {
				ta, c, ok := constraintFromTerm(term, nil, &ctx)
				h.keep(a.scan, ta, c, ok)
			})
		}
	}
}

// addFLWOR binds the FLWOR's for-variables to scans and records its
// where-clause conjuncts on the scans they read.
func (h Hints) addFLWOR(f *FLWOR) {
	vars := map[string]anchor{}
	for _, cl := range f.Clauses {
		if a, ok := h.bind(cl, vars); ok {
			vars[cl.Var] = a
		} else {
			delete(vars, cl.Var) // a let or an unresolved for shadows it
		}
	}
	if f.Where == nil {
		return
	}
	Conjuncts(f.Where, func(term Expr) {
		a, c, ok := constraintFromTerm(term, vars, nil)
		if ok {
			h.add(a.scan, &c)
		}
		if !ok || c.Path == nil || !a.ok {
			// A term dropped, or kept without a Path over its whole
			// anchor, may filter the bindings of any scan the FLWOR binds.
			for _, b := range vars {
				h.add(b.scan, nil).Complete = false
			}
		}
	})
}

// bind resolves a for-clause to the scan and label path its variable
// ranges over. A binding path over an earlier for-variable contributes
// its own steps and step predicates to that variable's scan (a
// collection-rooted one was recorded with every other such path).
func (h Hints) bind(cl Clause, vars map[string]anchor) (anchor, bool) {
	if cl.Let {
		return anchor{}, false
	}
	switch x := cl.In.(type) {
	case *CollectionCall:
		return anchor{scan: x, ok: true}, true
	case *PathExpr:
		switch src := x.Source.(type) {
		case *CollectionCall:
			return anchor{scan: src, ok: true}.extend(x.Steps), true
		case *VarRef:
			base, ok := vars[src.Name]
			if !ok {
				return anchor{}, false
			}
			h.addPath(base, x.Steps)
			return base.extend(x.Steps), true
		}
	}
	return anchor{}, false
}

// Conjuncts calls fn for every term of e's top-level AND tree, left to
// right.
func Conjuncts(e Expr, fn func(Expr)) {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		Conjuncts(b.Left, fn)
		Conjuncts(b.Right, fn)
		return
	}
	fn(e)
}

// resolve anchors the path side of a term. In a where clause (vars set,
// ctx nil) the path must root at a for-variable; in a step predicate
// (vars nil, ctx set) it is a relative path or the context item. A path
// with step predicates of its own is not resolved.
func resolve(e Expr, vars map[string]anchor, ctx *anchor) (anchor, bool) {
	switch x := e.(type) {
	case *VarRef:
		a, ok := vars[x.Name]
		return a, ok
	case *ContextItem:
		if ctx != nil {
			return *ctx, true
		}
	case *PathExpr:
		for _, st := range x.Steps {
			if len(st.Preds) > 0 {
				return anchor{}, false
			}
		}
		switch src := x.Source.(type) {
		case *VarRef:
			if a, ok := vars[src.Name]; ok {
				return a.extend(x.Steps), true
			}
		case nil:
			if ctx != nil {
				return ctx.extend(x.Steps), true
			}
		}
	}
	return anchor{}, false
}

// constraintFromTerm extracts a constraint from one conjunctive term and
// reports the anchor of the path it constrains.
func constraintFromTerm(term Expr, vars map[string]anchor, ctx *anchor) (anchor, Constraint, bool) {
	var c Constraint
	var a anchor
	switch x := term.(type) {
	case *Binary:
		cmp, isCmp := cmpOpFor(x.Op)
		if !isCmp {
			return a, c, false
		}
		path, lit, flipped, ok := pathAndLiteral(x.Left, x.Right)
		if !ok {
			return a, c, false
		}
		if a, ok = resolve(path, vars, ctx); !ok {
			return a, c, false
		}
		if flipped {
			cmp = flipCmp(cmp)
		}
		// Token witnesses only hold for equality with a string that is no
		// number: a number, or a string that parses as one, compares
		// numerically, so "100" also matches "100.0" or "1e2", whose
		// tokens differ.
		_, numeric := lit.(*NumberLit)
		if _, parses := ParseNumber(litString(lit)); !parses && cmp == CmpEq {
			c.Tokens = Tokenize(litString(lit))
		}
		if a.ok && len(a.steps) > 0 {
			c.Path = &PathConstraint{Steps: a.steps, Op: cmp, Literal: litString(lit), Numeric: numeric}
		}
	case *FuncCall:
		switch {
		case x.Name == "contains" && len(x.Args) == 2:
			lit, ok := x.Args[1].(*StringLit)
			if !ok {
				return a, c, false
			}
			if a, ok = resolve(x.Args[0], vars, ctx); !ok {
				return a, c, false
			}
			if isAlphanumeric(lit.Value) {
				c.Substring = strings.ToLower(lit.Value)
			}
			if a.ok && len(a.steps) > 0 {
				c.Contains = &ContainsConstraint{Steps: a.steps, Needle: lit.Value}
			}
		case x.Name == "exists" && len(x.Args) == 1:
			return existenceTerm(x.Args[0], vars, ctx)
		default:
			return a, c, false
		}
	case *PathExpr:
		// A bare path as a conjunct is an existence test.
		return existenceTerm(x, vars, ctx)
	default:
		return a, c, false
	}
	return a, c, len(c.Tokens) > 0 || c.Substring != "" || c.Path != nil || c.Contains != nil
}

// existenceTerm derives a required-path constraint from a positive
// existence test over a path.
func existenceTerm(e Expr, vars map[string]anchor, ctx *anchor) (anchor, Constraint, bool) {
	pe, ok := e.(*PathExpr)
	if !ok {
		return anchor{}, Constraint{}, false
	}
	a, ok := resolve(pe, vars, ctx)
	if !ok {
		return a, Constraint{}, false
	}
	c, ok := existence(a)
	return a, c, ok
}

// existence is what a path ending at a needs to select anything: a node
// at a's label path. With a not ok (a text() step) that path names the
// text's element, still a necessary condition but not the path's own.
func existence(a anchor) (Constraint, bool) {
	if len(a.steps) == 0 {
		return Constraint{}, false
	}
	return Constraint{Path: &PathConstraint{Steps: a.steps, Op: CmpExists}}, true
}

// toLabelSteps converts location steps to a label-path pattern. Step
// predicates are dropped — they only narrow the selected nodes, so the
// labels stay necessary. A text() step has no label: it is left out, and
// ok reports false, as the pattern then names the text's element rather
// than the nodes the path selects.
func toLabelSteps(steps []PathStep) (out []LabelStep, ok bool) {
	out, ok = make([]LabelStep, 0, len(steps)), true
	for _, st := range steps {
		if st.Text {
			ok = false
			continue
		}
		out = append(out, LabelStep{Descendant: st.Descendant, Name: st.Name, Attr: st.Attr})
	}
	return out, ok
}

// PlainLabels returns the element labels of a label path with no
// wildcard, // or attribute step: the only paths whose constraints can be
// matched label for label against a fragmentation predicate's path.
func PlainLabels(steps []LabelStep) ([]string, bool) {
	out := make([]string, len(steps))
	for i, st := range steps {
		if st.Descendant || st.Attr || st.Name == "*" {
			return nil, false
		}
		out[i] = st.Name
	}
	return out, true
}

// cmpOpFor maps a general-comparison operator to its constraint form.
// != is excluded: it is no witness (a doc may satisfy it through any
// other node value).
func cmpOpFor(op BinaryOp) (CmpOp, bool) {
	switch op {
	case OpEq:
		return CmpEq, true
	case OpLt:
		return CmpLt, true
	case OpLe:
		return CmpLe, true
	case OpGt:
		return CmpGt, true
	case OpGe:
		return CmpGe, true
	}
	return 0, false
}

// flipCmp mirrors an operator across the literal-on-the-left form:
// lit < path  ⟺  path > lit.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return op
}

// pathAndLiteral splits a comparison into its path side and literal side;
// flipped reports that the literal was on the left.
func pathAndLiteral(a, b Expr) (path, lit Expr, flipped, ok bool) {
	switch b.(type) {
	case *StringLit, *NumberLit:
		return a, b, false, true
	}
	switch a.(type) {
	case *StringLit, *NumberLit:
		return b, a, true, true
	}
	return nil, nil, false, false
}

// litString renders a literal exactly as the evaluator atomizes it, so
// the value index compares the same operand the evaluator would.
func litString(e Expr) string {
	switch x := e.(type) {
	case *StringLit:
		return x.Value
	case *NumberLit:
		return formatNumber(x.Value)
	}
	return ""
}
