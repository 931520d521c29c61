// Package exec compiles parsed FLWOR/path queries into a push-based,
// batch-at-a-time operator pipeline: scan → path-step → predicate-filter →
// bind → order-by → project. The pipeline pulls documents from the
// engine's document scan (through xquery.Source) and pushes result
// items to a yield callback in bounded batches, so memory stays flat on
// arbitrarily large results instead of materializing a full Seq. Where
// possible, predicate evaluation is vectorized: per tuple batch the
// predicate's value column is gathered into reusable scratch buffers and
// compared against a literal prepared once at compile time, through the
// same shared comparison code (xquery/compare.go) the interpreter uses.
// Compile also derives the part of each document the pipeline reads and
// hands it to the scan as xquery.Hint.Keep (project.go), so the engine
// builds only that part of every candidate it decodes.
//
// Compile is deliberately partial: any expression shape outside the
// compiled subset either falls back per-tuple to the tree-walking
// interpreter (xquery.EvalWith) for that sub-expression, or — for
// top-level shapes the pipeline cannot express — declines entirely, in
// which case the engine runs xquery.Eval. The interpreter remains the
// semantic oracle; the compiled pipeline must be observationally
// identical (see the randomized differential test).
package exec

import (
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// foldKind says how the pipeline's item stream is consumed: passed
// through (foldNone) or folded into a single aggregate/decider item.
type foldKind uint8

const (
	foldNone foldKind = iota
	foldCount
	foldSum
	foldAvg
	foldMin
	foldMax
	foldExists
	foldEmpty
)

var foldNames = map[foldKind]string{
	foldSum: "sum", foldAvg: "avg", foldMin: "min", foldMax: "max",
}

// Program is a compiled query: a streaming pipeline plus an optional fold,
// and how a Decider source may answer that fold from its candidate list.
type Program struct {
	fold foldKind
	ask  askKind
	pipe *pipeline
}

// askKind says what a decider fold asks an xquery.Decider for.
type askKind uint8

const (
	askNone  askKind = iota // the fold scans
	askDocs                 // the documents on the candidate list: one binding each, or any binding at all
	askNodes                // the nodes at the binding path (a count with no term)
)

// Streams reports whether the program produces an item stream (no fold):
// the result can be arbitrarily large and is worth delivering in frames.
func (p *Program) Streams() bool { return p.fold == foldNone }

// Decides reports whether the program is a count, exists or empty fold
// that a Decider source may answer from its indexes alone.
func (p *Program) Decides() bool { return p.ask != askNone }

// Keep is the projection the program hands its scan (xquery.Hint.Keep):
// the part of each document it reads, nil when it needs whole documents.
// The trie is shared by every run of the program and must not be changed.
func (p *Program) Keep() *xmltree.Projection {
	if p.pipe.hint == nil {
		return nil
	}
	return p.pipe.hint.Keep
}

// pipeline is the compiled operator chain over one collection scan.
type pipeline struct {
	coll         string
	hint         *xquery.Hint // candidate pruning (the scan's ExtractScanHints entry) and projection
	shipHint     *xquery.Hint // hint with the shipped projection, for a Shipper; nil: hint serves
	shipped      shippedHint  // shipHint's storage, allocated with the pipeline
	scanSteps    []step       // binding path of the driving for-clause
	freshWrapper bool         // first step may select the #document wrapper itself
	clauses      []boundClause
	filter       []filterTerm
	orderBy      []orderKey
	ret          valueExpr
	stride       int      // slots per tuple
	varNames     []string // slot → variable name; "" for the synthetic path binding
	letSlot      []bool   // slot → bound by a let-clause (holds a Seq, not an Item)
}

// step is one compiled location step.
type step struct {
	descendant bool
	name       string
	attr, text bool
	preds      []pred
}

// predKind discriminates compiled step predicates.
type predKind uint8

const (
	predPositional predKind = iota // [2] — literal number selects by position
	predTerm                       // native term relative to the context node
	predFallback                   // interpreted via xquery.EvalWith
)

type pred struct {
	kind     predKind
	pos      int
	term     *term
	fallback xquery.Expr
}

// termKind discriminates native filter terms.
type termKind uint8

const (
	termCmp    termKind = iota // path CMP literal (general comparison)
	termString                 // contains/starts-with/ends-with(path, literal)
	termExists                 // path existence (bare path, exists(), not empty())
)

// strFn selects the string predicate function of a termString.
type strFn uint8

const (
	fnContains strFn = iota
	fnStartsWith
	fnEndsWith
)

// term is one native predicate: a pred-free relative path from a base
// (a tuple slot, or the context node for step predicates) tested against
// a literal prepared once at compile time. Terms are existential — any
// node at the path satisfying the test satisfies the term — so the
// vectorized evaluation may skip duplicate suppression: duplicates can
// never flip an existential result.
type term struct {
	kind   termKind
	slot   int // base slot; ctxSlot for step predicates
	rel    []step
	op     xquery.BinaryOp // termCmp
	lit    xquery.Operand  // termCmp: literal prepared once per plan
	fn     strFn           // termString
	needle string          // termString
	negate bool
}

// ctxSlot marks a term whose base is the step-predicate context node.
const ctxSlot = -1

type filterTerm struct {
	native   *term
	fallback xquery.Expr // interpreted per tuple when native is nil
}

type orderKey struct {
	key  valueExpr
	desc bool
}

// veKind discriminates compiled value expressions (clause sources, return
// and order-by key programs).
type veKind uint8

const (
	veSlot     veKind = iota // $v
	vePath                   // $v/rel/path (step predicates allowed)
	veLit                    // string/number literal
	veCount                  // count($v/rel) — the VQ10 inner-aggregate shape
	veFallback               // interpreted via xquery.EvalWith
)

type valueExpr struct {
	kind veKind
	slot int
	rel  []step
	lit  xquery.Item
	expr xquery.Expr
}

// boundClause is one for/let clause after the driving scan clause.
type boundClause struct {
	let  bool
	slot int
	src  valueExpr
}

// Compile translates a parsed query into a Program, or reports ok=false
// when the top-level shape is outside the compiled subset (the caller
// then evaluates with the interpreter).
func Compile(e xquery.Expr) (*Program, bool) {
	hints := xquery.ExtractScanHints(e)
	switch x := e.(type) {
	case *xquery.FuncCall:
		return compileFold(x, hints)
	case *xquery.FLWOR, *xquery.PathExpr, *xquery.CollectionCall:
		pipe, ok := compileStream(e, hints)
		if !ok {
			return nil, false
		}
		pipe.project(foldNone)
		return &Program{fold: foldNone, pipe: pipe}, true
	}
	return nil, false
}

// Filter is a compiled document filter: a FLWOR over one collection
// scan, asked only which documents produce a binding. Its return value
// merely has to exist, as under count(), so the scan decodes just what the
// clauses and the where clause read.
type Filter struct {
	pipe *pipeline
}

// CompileFilter compiles a FLWOR as a document filter, or reports
// ok=false when it is outside the compiled subset.
func CompileFilter(e xquery.Expr) (*Filter, bool) {
	f, ok := e.(*xquery.FLWOR)
	if !ok {
		return nil, false
	}
	pipe, ok := compileFLWOR(f, xquery.ExtractScanHints(e))
	if !ok {
		return nil, false
	}
	pipe.project(foldExists)
	return &Filter{pipe: pipe}, true
}

// Collection names the collection the filter scans.
func (f *Filter) Collection() string { return f.pipe.coll }

// Match runs the filter over src one document at a time: a document's
// bindings are evaluated before the scan moves on, and matched is called
// (once per binding batch) while src is still handing that document out.
// A Source that tracks the document it hands out therefore knows, when
// the callback for it returns, whether it matched.
func (f *Filter) Match(src xquery.Source, matched func()) error {
	return f.pipe.runEager(src, func(items xquery.Seq) error {
		if len(items) > 0 {
			matched()
		}
		return nil
	})
}

// compileFold handles the aggregate/decider wrappers around a stream:
// count, sum, avg, min, max, exists, empty.
func compileFold(f *xquery.FuncCall, hints xquery.Hints) (*Program, bool) {
	if len(f.Args) != 1 {
		return nil, false
	}
	var fold foldKind
	switch f.Name {
	case "count":
		fold = foldCount
	case "sum":
		fold = foldSum
	case "avg":
		fold = foldAvg
	case "min":
		fold = foldMin
	case "max":
		fold = foldMax
	case "exists":
		fold = foldExists
	case "empty":
		fold = foldEmpty
	default:
		return nil, false
	}
	pipe, ok := compileStream(f.Args[0], hints)
	if !ok {
		return nil, false
	}
	pipe.project(fold)
	return &Program{fold: fold, ask: pipe.decider(fold), pipe: pipe}, true
}

// decider says how a count, exists or empty fold over the pipeline may be
// answered from the candidate list of its scan's hint. The pipeline must
// yield its bindings themselves: one for clause or a collection-rooted
// path, no let, order by, positional predicate or interpreted term, and
// a binding that is never the document wrapper, unless it is only ever
// the wrapper. The hint must be Complete, so every term is one of its
// Path constraints; and the constraints must not lose a correlation
// between the nodes they match:
//
//   - a bare collection() binds each document's wrapper once, so with no
//     term its unconstrained candidate count, the documents, decides it;
//   - a root binding (one child step) has at most one binding per
//     document, so a document is on the list exactly when its binding
//     passes every term;
//   - any other binding is decided with no term by its node count, and
//     for exists/empty with one term over the binding itself (a step
//     predicate of its last step, or a where term): a node the term's
//     Path matches lies at or under a binding that passes it.
func (p *pipeline) decider(fold foldKind) askKind {
	if fold != foldCount && fold != foldExists && fold != foldEmpty {
		return askNone
	}
	if p.hint == nil || !p.hint.Complete || len(p.clauses) > 0 ||
		len(p.orderBy) > 0 || p.ret.kind != veSlot {
		return askNone
	}
	if len(p.scanSteps) == 0 && len(p.filter) == 0 {
		return askDocs
	}
	if p.freshWrapper {
		return askNone
	}
	terms := len(p.filter)
	for _, ft := range p.filter {
		if ft.native == nil {
			return askNone
		}
	}
	last := len(p.scanSteps) - 1
	for i, st := range p.scanSteps {
		for _, pr := range st.preds {
			if pr.kind != predTerm || i < last {
				return askNone
			}
			terms++
		}
	}
	root := last == 0 && !p.scanSteps[0].descendant
	switch {
	case fold == foldCount && terms == 0:
		return askNodes
	case root, fold != foldCount && terms <= 1:
		return askDocs
	}
	return askNone
}

// compileStream compiles an item-producing expression: a FLWOR whose
// driving clause scans a collection, or a collection-rooted path.
func compileStream(e xquery.Expr, hints xquery.Hints) (*pipeline, bool) {
	if f, isFLWOR := e.(*xquery.FLWOR); isFLWOR {
		return compileFLWOR(f, hints)
	}
	coll, steps, ok := xquery.CollectionRooted(e)
	if !ok {
		return nil, false
	}
	c := &compiler{slotOf: map[string]int{}}
	scan, ok := c.compileSteps(steps)
	if !ok {
		return nil, false
	}
	return &pipeline{
		coll:         coll,
		hint:         hints.Scan(e),
		scanSteps:    scan,
		freshWrapper: wrapperReachable(scan),
		ret:          valueExpr{kind: veSlot, slot: 0},
		stride:       1,
		varNames:     []string{""},
		letSlot:      []bool{false},
	}, true
}

// compiler tracks variable slots while compiling one FLWOR.
type compiler struct {
	slotOf   map[string]int
	varNames []string
	letSlot  []bool
}

func (c *compiler) addSlot(name string, let bool) (int, bool) {
	if name != "" {
		if _, dup := c.slotOf[name]; dup {
			return 0, false // shadowing: the interpreter's restore semantics; decline
		}
		c.slotOf[name] = len(c.varNames)
	}
	c.varNames = append(c.varNames, name)
	c.letSlot = append(c.letSlot, let)
	return len(c.varNames) - 1, true
}

func compileFLWOR(f *xquery.FLWOR, hints xquery.Hints) (*pipeline, bool) {
	if len(f.Clauses) == 0 || f.Clauses[0].Let {
		return nil, false
	}
	coll, rawSteps, ok := xquery.CollectionRooted(f.Clauses[0].In)
	if !ok {
		return nil, false
	}
	c := &compiler{slotOf: map[string]int{}}
	if _, ok := c.addSlot(f.Clauses[0].Var, false); !ok {
		return nil, false
	}
	scan, ok := c.compileSteps(rawSteps)
	if !ok {
		return nil, false
	}
	p := &pipeline{
		coll:         coll,
		hint:         hints.Scan(f.Clauses[0].In),
		scanSteps:    scan,
		freshWrapper: wrapperReachable(scan),
	}
	for _, cl := range f.Clauses[1:] {
		src := c.compileValue(cl.In)
		slot, ok := c.addSlot(cl.Var, cl.Let)
		if !ok {
			return nil, false
		}
		p.clauses = append(p.clauses, boundClause{let: cl.Let, slot: slot, src: src})
	}
	if f.Where != nil {
		xquery.Conjuncts(f.Where, func(t xquery.Expr) {
			if nt, ok := c.compileTerm(t); ok {
				p.filter = append(p.filter, filterTerm{native: nt})
			} else {
				p.filter = append(p.filter, filterTerm{fallback: t})
			}
		})
	}
	for _, spec := range f.OrderBy {
		p.orderBy = append(p.orderBy, orderKey{key: c.compileValue(spec.Key), desc: spec.Descending})
	}
	p.ret = c.compileValue(f.Return)
	p.stride = len(c.varNames)
	p.varNames = c.varNames
	p.letSlot = c.letSlot
	return p, true
}

// compileSteps converts location steps, compiling each step predicate.
func (c *compiler) compileSteps(raw []xquery.PathStep) ([]step, bool) {
	out := make([]step, 0, len(raw))
	for _, st := range raw {
		s := step{descendant: st.Descendant, name: st.Name, attr: st.Attr, text: st.Text}
		for _, pe := range st.Preds {
			s.preds = append(s.preds, c.compilePred(pe))
		}
		out = append(out, s)
	}
	return out, true
}

func (c *compiler) compilePred(e xquery.Expr) pred {
	if num, ok := e.(*xquery.NumberLit); ok {
		return pred{kind: predPositional, pos: int(num.Value)}
	}
	if t, ok := c.compileCtxTerm(e); ok {
		return pred{kind: predTerm, term: t}
	}
	return pred{kind: predFallback, fallback: e}
}

// compileValue compiles a clause source / return / order-key expression.
// Unsupported shapes become interpreter fallbacks, never a failure.
func (c *compiler) compileValue(e xquery.Expr) valueExpr {
	switch x := e.(type) {
	case *xquery.VarRef:
		if slot, ok := c.slotOf[x.Name]; ok {
			return valueExpr{kind: veSlot, slot: slot}
		}
	case *xquery.StringLit:
		return valueExpr{kind: veLit, lit: x.Value}
	case *xquery.NumberLit:
		return valueExpr{kind: veLit, lit: x.Value}
	case *xquery.PathExpr:
		if slot, rel, ok := c.slotPath(x, true); ok {
			return valueExpr{kind: vePath, slot: slot, rel: rel}
		}
	case *xquery.FuncCall:
		if x.Name == "count" && len(x.Args) == 1 {
			if pe, isPath := x.Args[0].(*xquery.PathExpr); isPath {
				if slot, rel, ok := c.slotPath(pe, true); ok {
					return valueExpr{kind: veCount, slot: slot, rel: rel}
				}
			}
		}
	}
	return valueExpr{kind: veFallback, expr: e}
}

// slotPath recognizes $v/rel paths where $v is a for-bound slot (a single
// node at run time). withPreds permits compiled step predicates; term
// paths require pred-free steps so their vectorized walk stays trivial.
func (c *compiler) slotPath(p *xquery.PathExpr, withPreds bool) (int, []step, bool) {
	v, isVar := p.Source.(*xquery.VarRef)
	if !isVar {
		return 0, nil, false
	}
	slot, known := c.slotOf[v.Name]
	if !known || c.letSlot[slot] {
		return 0, nil, false
	}
	rel, ok := c.relSteps(p.Steps, withPreds)
	if !ok {
		return 0, nil, false
	}
	return slot, rel, true
}

func (c *compiler) relSteps(raw []xquery.PathStep, withPreds bool) ([]step, bool) {
	if !withPreds {
		for _, st := range raw {
			if len(st.Preds) > 0 {
				return nil, false
			}
		}
	}
	return c.compileSteps(raw)
}

// compileTerm compiles one where-conjunct into a native term evaluated
// against tuple slots, or reports ok=false for the interpreter fallback.
func (c *compiler) compileTerm(e xquery.Expr) (*term, bool) {
	return c.compileTermBase(e, c.whereBase)
}

// compileCtxTerm compiles a step predicate relative to the context node.
func (c *compiler) compileCtxTerm(e xquery.Expr) (*term, bool) {
	return c.compileTermBase(e, ctxBase)
}

// baseFn resolves the path side of a term to (slot, relative steps).
type baseFn func(e xquery.Expr) (int, []step, bool)

// whereBase: $v or $v/rel over a for-bound slot.
func (c *compiler) whereBase(e xquery.Expr) (int, []step, bool) {
	switch x := e.(type) {
	case *xquery.VarRef:
		slot, known := c.slotOf[x.Name]
		if !known || c.letSlot[slot] {
			return 0, nil, false
		}
		return slot, nil, true
	case *xquery.PathExpr:
		return c.slotPath(x, false)
	}
	return 0, nil, false
}

// ctxBase: "." or a relative path inside a step predicate.
func ctxBase(e xquery.Expr) (int, []step, bool) {
	switch x := e.(type) {
	case *xquery.ContextItem:
		return ctxSlot, nil, true
	case *xquery.PathExpr:
		if x.Source != nil {
			return 0, nil, false
		}
		c := &compiler{}
		rel, ok := c.relSteps(x.Steps, false)
		if !ok {
			return 0, nil, false
		}
		return ctxSlot, rel, true
	}
	return 0, nil, false
}

func (c *compiler) compileTermBase(e xquery.Expr, base baseFn) (*term, bool) {
	switch x := e.(type) {
	case *xquery.Binary:
		switch x.Op {
		case xquery.OpEq, xquery.OpNe, xquery.OpLt, xquery.OpLe, xquery.OpGt, xquery.OpGe:
		default:
			return nil, false
		}
		op := x.Op
		pathSide, litSide := x.Left, x.Right
		if _, isLit := literalOf(litSide); !isLit {
			if _, leftLit := literalOf(x.Left); !leftLit {
				return nil, false
			}
			pathSide, litSide = x.Right, x.Left
			op = flipOp(op)
		}
		litStr, _ := literalOf(litSide)
		slot, rel, ok := base(pathSide)
		if !ok {
			return nil, false
		}
		// A bare VarRef base compares the slot's single item — atomic
		// values atomize the same way node values do, so no node
		// requirement; non-empty rel requires a node base (checked at
		// run time with the interpreter's exact error).
		return &term{kind: termCmp, slot: slot, rel: rel, op: op, lit: xquery.PrepOperand(litStr)}, true
	case *xquery.FuncCall:
		switch x.Name {
		case "contains", "starts-with", "ends-with":
			if len(x.Args) != 2 {
				return nil, false
			}
			needle, isLit := literalOf(x.Args[1])
			if !isLit {
				return nil, false
			}
			slot, rel, ok := base(x.Args[0])
			if !ok {
				return nil, false
			}
			fn := fnContains
			switch x.Name {
			case "starts-with":
				fn = fnStartsWith
			case "ends-with":
				fn = fnEndsWith
			}
			return &term{kind: termString, slot: slot, rel: rel, fn: fn, needle: needle}, true
		case "exists", "empty":
			if len(x.Args) != 1 {
				return nil, false
			}
			pe, isPath := x.Args[0].(*xquery.PathExpr)
			if !isPath {
				return nil, false
			}
			slot, rel, ok := base(pe)
			if !ok {
				return nil, false
			}
			return &term{kind: termExists, slot: slot, rel: rel, negate: x.Name == "empty"}, true
		case "not":
			if len(x.Args) != 1 {
				return nil, false
			}
			inner, ok := c.compileTermBase(x.Args[0], base)
			if !ok {
				return nil, false
			}
			nt := *inner
			nt.negate = !nt.negate
			return &nt, true
		}
	case *xquery.PathExpr:
		// A bare path conjunct is an existence test (its effective boolean
		// value: non-empty node sequence). Requires at least one step so
		// the result is guaranteed to be nodes — a bare $v could hold an
		// atomic whose effective boolean value is value-dependent.
		if len(x.Steps) == 0 {
			return nil, false
		}
		slot, rel, ok := base(x)
		if !ok || len(rel) == 0 {
			return nil, false
		}
		return &term{kind: termExists, slot: slot, rel: rel}, true
	}
	return nil, false
}

// literalOf renders a literal operand exactly as the evaluator atomizes
// it (numbers through the shared number formatting).
func literalOf(e xquery.Expr) (string, bool) {
	switch x := e.(type) {
	case *xquery.StringLit:
		return x.Value, true
	case *xquery.NumberLit:
		return xquery.ItemString(x.Value), true
	}
	return "", false
}

// flipOp mirrors a comparison across literal-on-the-left: lit < p ⟺ p > lit.
func flipOp(op xquery.BinaryOp) xquery.BinaryOp {
	switch op {
	case xquery.OpLt:
		return xquery.OpGt
	case xquery.OpLe:
		return xquery.OpGe
	case xquery.OpGt:
		return xquery.OpLt
	case xquery.OpGe:
		return xquery.OpLe
	}
	return op
}

// wrapperReachable reports whether the scan's first step could select the
// virtual #document wrapper itself (the interpreter's Walk starts at the
// context node, so a leading //* — or an explicit //#document — matches
// it). Such scans allocate a fresh wrapper per document; all others reuse
// one wrapper across the scan since it can never escape into results.
// An empty step list binds the wrapper directly, which also escapes.
func wrapperReachable(steps []step) bool {
	if len(steps) == 0 {
		return true
	}
	st := steps[0]
	return st.descendant && !st.attr && !st.text && (st.name == "*" || st.name == "#document")
}
