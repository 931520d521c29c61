package xquery

import (
	"strings"

	"partix/internal/xmltree"
)

// Hint is a conjunction of constraints a document must satisfy to
// possibly contribute to a query's result. The engine evaluates hints
// against its indexes to prune candidate documents before decoding them
// (this is the "indexes … to speed up text search operations" behaviour
// of eXist the paper relies on). Hints are always a NECESSARY condition,
// never sufficient: surviving documents are still fully evaluated.
type Hint struct {
	Constraints []Constraint
	// Keep, when non-nil, is the part of each document the query reads
	// (derived by the compiled executor from its plan). A Source may
	// ignore it: handing out whole documents is always correct.
	Keep *xmltree.Projection
}

// Constraint is one conjunct.
type Constraint struct {
	// Tokens non-empty: the document must contain every listed token
	// (derived from `path = "literal"`: a node value equal to the literal
	// necessarily contributes all the literal's tokens).
	Tokens []string
	// Substring non-empty: the document must contain some token having
	// this substring (derived from contains(path, "literal") with a purely
	// alphanumeric literal; a substring match within a text always lands
	// inside a single token then).
	Substring string
	// Elements non-empty: the document must contain an element with every
	// listed name (derived from for-binding paths and positive existence
	// tests — a document lacking the element yields no bindings and so no
	// output). This is the structural-index counterpart of eXist's
	// "indexes … to speed up path expressions evaluation".
	Elements []string
	// Path non-nil: the document must contain a node whose root-to-node
	// label path matches Path.Steps and — for the comparison ops — whose
	// string value compares true against Path.Literal under the
	// evaluator's general-comparison semantics. Derived from binding
	// paths (CmpExists) and from equality/range terms; evaluated against
	// the engine's path summary and typed value index.
	Path *PathConstraint
}

// CmpOp is the comparison a PathConstraint (or ValueProbe) carries.
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

// ExtractHints analyzes a query and derives, per collection, a sound
// document-pruning hint. Constraints are only taken from positions that
// are necessary conditions for a document to contribute:
//
//   - conjunctive terms of a FLWOR where-clause comparing a path rooted at
//     a for-variable bound to the collection against a literal (equality
//     produces token + path constraints, the range operators <, <=, >, >=
//     produce path constraints), and
//   - the same shapes inside step predicates of the binding path itself
//     (collection("c")/Item[Section = "CD"]).
//
// Terms under not(), or, !=, and any other function are ignored.
func ExtractHints(e Expr) map[string]*Hint {
	hints := map[string]*Hint{}
	collectFLWORs(e, hints)
	return hints
}

// varBinding records what a for-variable ranges over: its collection and
// the label-path pattern of the binding path (pathOK false when the path
// contains a step — text() — that has no label).
type varBinding struct {
	coll   string
	steps  []LabelStep
	pathOK bool
}

// predCtx is the label-path prefix a step predicate's relative paths
// extend: the path up to and including the step the predicate hangs off.
type predCtx struct {
	steps []LabelStep
	ok    bool
}

func collectFLWORs(e Expr, hints map[string]*Hint) {
	Walk(e, func(x Expr) {
		f, ok := x.(*FLWOR)
		if !ok {
			return
		}
		// Map for-variables to their source collections and binding paths.
		varColl := map[string]varBinding{}
		for _, cl := range f.Clauses {
			if cl.Let {
				continue
			}
			coll, steps, ok := collectionRooted(cl.In)
			if !ok {
				continue
			}
			ls, lsOK := toLabelSteps(steps)
			varColl[cl.Var] = varBinding{coll: coll, steps: ls, pathOK: lsOK}
			// The binding path must select something for the document to
			// produce any output: its element names (and label path) are
			// required.
			c := Constraint{Elements: stepElements(steps)}
			if lsOK && len(ls) > 0 {
				c.Path = &PathConstraint{Steps: ls, Op: CmpExists}
			}
			if len(c.Elements) > 0 || c.Path != nil {
				appendConstraint(hints, coll, c)
			}
			// Step predicates of the binding path are conjunctive for this
			// collection's documents.
			for si, st := range steps {
				ctxSteps, ctxOK := toLabelSteps(steps[: si+1 : si+1])
				ctx := predCtx{steps: ctxSteps, ok: ctxOK}
				for _, p := range st.Preds {
					Conjuncts(p, func(term Expr) {
						if c, ok := constraintFromTerm(term, nil, varColl, ctx); ok {
							appendConstraint(hints, coll, c)
						}
					})
				}
			}
		}
		if f.Where == nil || len(varColl) == 0 {
			return
		}
		Conjuncts(f.Where, func(term Expr) {
			coll, c, ok := constraintWithVar(term, varColl)
			if ok {
				appendConstraint(hints, coll, c)
			}
		})
	})
}

func appendConstraint(hints map[string]*Hint, coll string, c Constraint) {
	h := hints[coll]
	if h == nil {
		h = &Hint{}
		hints[coll] = h
	}
	h.Constraints = append(h.Constraints, c)
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

// constraintWithVar recognizes a term touching exactly one for-variable
// and returns the constraint plus its collection.
func constraintWithVar(term Expr, varColl map[string]varBinding) (string, Constraint, bool) {
	var coll string
	c, ok := constraintFromTerm(term, &coll, varColl, predCtx{})
	if !ok || coll == "" {
		return "", Constraint{}, false
	}
	return coll, c, true
}

// constraintFromTerm extracts a constraint from one conjunctive term. When
// collOut is non-nil the term must reference a for-variable (whose
// collection is reported through collOut); when nil the term is a step
// predicate whose context is already scoped to the collection, so relative
// paths (and the context item) are accepted and extend ctx.
func constraintFromTerm(term Expr, collOut *string, varColl map[string]varBinding, ctx predCtx) (Constraint, bool) {
	switch x := term.(type) {
	case *Binary:
		cmp, isCmp := cmpOpFor(x.Op)
		if !isCmp {
			return Constraint{}, false
		}
		path, lit, flipped, ok := pathAndLiteral(x.Left, x.Right)
		if !ok {
			return Constraint{}, false
		}
		if !sourceMatches(path, collOut, varColl) {
			return Constraint{}, false
		}
		if flipped {
			cmp = flipCmp(cmp)
		}
		var c Constraint
		// Token witnesses only hold for string-literal equality: a numeric
		// literal compares numerically, so "100" also matches "100.0" or
		// "1e2", whose tokens differ.
		if s, isStr := lit.(*StringLit); isStr && cmp == CmpEq {
			c.Tokens = Tokenize(s.Value)
		}
		if ls, ok := termLabelSteps(path, varColl, ctx); ok && len(ls) > 0 {
			c.Path = &PathConstraint{Steps: ls, Op: cmp, Literal: litString(lit)}
		}
		if len(c.Tokens) == 0 && c.Path == nil {
			return Constraint{}, false
		}
		return c, true
	case *FuncCall:
		switch x.Name {
		case "contains":
			if len(x.Args) != 2 {
				return Constraint{}, false
			}
			lit, ok := x.Args[1].(*StringLit)
			if !ok || !isAlphanumeric(lit.Value) {
				return Constraint{}, false
			}
			if !sourceMatches(x.Args[0], collOut, varColl) {
				return Constraint{}, false
			}
			return Constraint{Substring: strings.ToLower(lit.Value)}, true
		case "exists":
			if len(x.Args) != 1 {
				return Constraint{}, false
			}
			return existenceConstraint(x.Args[0], collOut, varColl, ctx)
		default:
			return Constraint{}, false
		}
	case *PathExpr:
		// A bare path as a conjunct is an existence test.
		return existenceConstraint(x, collOut, varColl, ctx)
	default:
		return Constraint{}, false
	}
}

// existenceConstraint derives a required-elements (and required-path)
// constraint from a positive existence test over a path.
func existenceConstraint(e Expr, collOut *string, varColl map[string]varBinding, ctx predCtx) (Constraint, bool) {
	pe, ok := e.(*PathExpr)
	if !ok {
		return Constraint{}, false
	}
	if !sourceMatches(pe, collOut, varColl) {
		return Constraint{}, false
	}
	c := Constraint{Elements: stepElements(pe.Steps)}
	if ls, ok := termLabelSteps(pe, varColl, ctx); ok && len(ls) > 0 {
		c.Path = &PathConstraint{Steps: ls, Op: CmpExists}
	}
	if len(c.Elements) == 0 && c.Path == nil {
		return Constraint{}, false
	}
	return c, true
}

// stepElements returns the concrete element names a path requires.
func stepElements(steps []PathStep) []string {
	var out []string
	for _, st := range steps {
		if st.Attr || st.Text || st.Name == "*" || st.Name == "" {
			continue
		}
		out = append(out, st.Name)
	}
	return out
}

// toLabelSteps converts location steps to a label-path pattern. Step
// predicates are dropped — they only narrow the selected nodes, so the
// labels stay necessary — but a text() step has no label and fails the
// conversion.
func toLabelSteps(steps []PathStep) ([]LabelStep, bool) {
	out := make([]LabelStep, 0, len(steps))
	for _, st := range steps {
		if st.Text || st.Name == "" {
			return nil, false
		}
		out = append(out, LabelStep{Descendant: st.Descendant, Name: st.Name, Attr: st.Attr})
	}
	return out, true
}

// termLabelSteps resolves the full root-anchored label path of the path
// side of a term: the binding path of its for-variable (or the predicate
// context) plus the term's own steps. Step predicates on the term side
// were already rejected by sourceMatches.
func termLabelSteps(e Expr, varColl map[string]varBinding, ctx predCtx) ([]LabelStep, bool) {
	switch x := e.(type) {
	case *VarRef:
		vb, known := varColl[x.Name]
		if !known || !vb.pathOK {
			return nil, false
		}
		return vb.steps, true
	case *ContextItem:
		if !ctx.ok {
			return nil, false
		}
		return ctx.steps, true
	case *PathExpr:
		rel, ok := toLabelSteps(x.Steps)
		if !ok {
			return nil, false
		}
		var base []LabelStep
		switch src := x.Source.(type) {
		case *VarRef:
			vb, known := varColl[src.Name]
			if !known || !vb.pathOK {
				return nil, false
			}
			base = vb.steps
		case nil:
			if !ctx.ok {
				return nil, false
			}
			base = ctx.steps
		default:
			return nil, false
		}
		return append(append([]LabelStep(nil), base...), rel...), true
	}
	return nil, false
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

// sourceMatches checks the path side of a term: with collOut it must be a
// path rooted at a known for-variable with no further step predicates (a
// predicate could invert the match); without collOut, a relative path or
// the context item inside a step predicate.
func sourceMatches(e Expr, collOut *string, varColl map[string]varBinding) bool {
	p, ok := e.(*PathExpr)
	if !ok {
		if v, isVar := e.(*VarRef); isVar && collOut != nil {
			coll, known := varColl[v.Name]
			if known {
				*collOut = coll.coll
				return true
			}
		}
		if _, isCtx := e.(*ContextItem); isCtx && collOut == nil {
			return true
		}
		return false
	}
	for _, st := range p.Steps {
		if len(st.Preds) > 0 {
			return false
		}
	}
	if collOut == nil {
		return p.Source == nil // relative path inside a step predicate
	}
	v, isVar := p.Source.(*VarRef)
	if !isVar {
		return false
	}
	vb, known := varColl[v.Name]
	if !known {
		return false
	}
	*collOut = vb.coll
	return true
}
