package xquery

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"partix/internal/xmltree"
)

// Item is one value of a result sequence: an *xmltree.Node, string,
// float64 or bool.
type Item any

// Seq is an ordered sequence of items (the XQuery data model's sequence).
type Seq []Item

// Source provides the documents queries run over. The engine implements
// it with index-assisted candidate pruning; tests use in-memory sources.
type Source interface {
	// Docs calls fn for every document of the named collection that can
	// possibly satisfy hint (a nil hint means every document). Sources are
	// free to ignore the hint — it only ever prunes documents that cannot
	// contribute to the result, or (hint.Keep) the parts of documents the
	// query does not read.
	Docs(collection string, hint *Hint, fn func(*xmltree.Document) error) error
	// Doc resolves doc("name").
	Doc(name string) (*xmltree.Document, error)
}

// Eval compiles nothing further — it evaluates a parsed query against src.
func Eval(e Expr, src Source) (Seq, error) {
	ctx := &context{src: src, hints: ExtractScanHints(e), vars: map[string]Seq{}}
	return ctx.eval(e)
}

// EvalQuery parses and evaluates a query string.
func EvalQuery(query string, src Source) (Seq, error) {
	e, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Eval(e, src)
}

// EvalWith evaluates e with pre-bound variables and an optional context
// item. The compiled executor (internal/xquery/exec) uses it as the
// per-tuple fallback for sub-expressions it does not handle natively, so
// cold expression shapes keep the interpreter's exact semantics. vars may
// be nil; the map is not retained.
func EvalWith(e Expr, src Source, vars map[string]Seq, ctxItem Item) (Seq, error) {
	if vars == nil {
		vars = map[string]Seq{}
	}
	ctx := &context{src: src, vars: vars, ctxItem: ctxItem}
	return ctx.eval(e)
}

type context struct {
	src     Source
	hints   Hints // per-scan pruning hints; nil evaluates unpruned
	vars    map[string]Seq
	ctxItem Item // context item for relative paths; nil outside predicates
}

func (c *context) eval(e Expr) (Seq, error) {
	switch x := e.(type) {
	case *StringLit:
		return Seq{x.Value}, nil
	case *TextLit:
		return Seq{x.Value}, nil
	case *NumberLit:
		return Seq{x.Value}, nil
	case *VarRef:
		v, ok := c.vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("xquery: unbound variable $%s", x.Name)
		}
		return v, nil
	case *ContextItem:
		if c.ctxItem == nil {
			return nil, fmt.Errorf("xquery: no context item for '.'")
		}
		return Seq{c.ctxItem}, nil
	case *CollectionCall:
		var out Seq
		err := c.src.Docs(x.Name, c.hints[x], func(d *xmltree.Document) error {
			out = append(out, docNode(d))
			return nil
		})
		return out, err
	case *DocCall:
		d, err := c.src.Doc(x.Name)
		if err != nil {
			return nil, err
		}
		return Seq{docNode(d)}, nil
	case *Sequence:
		var out Seq
		for _, it := range x.Items {
			s, err := c.eval(it)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case *PathExpr:
		return c.evalPath(x)
	case *Binary:
		return c.evalBinary(x)
	case *FuncCall:
		return c.evalFunc(x)
	case *FLWOR:
		return c.evalFLWOR(x)
	case *ElementCtor:
		n, err := c.evalCtor(x)
		if err != nil {
			return nil, err
		}
		return Seq{n}, nil
	case *IfExpr:
		cond, err := c.eval(x.Cond)
		if err != nil {
			return nil, err
		}
		b, err := EffectiveBool(cond)
		if err != nil {
			return nil, err
		}
		if b {
			return c.eval(x.Then)
		}
		return c.eval(x.Else)
	case *Quantified:
		return c.evalQuantified(x)
	default:
		return nil, fmt.Errorf("xquery: cannot evaluate %T", e)
	}
}

// evalQuantified implements some/every: existential or universal over the
// cartesian product of the clause bindings.
func (c *context) evalQuantified(q *Quantified) (Seq, error) {
	found, err := c.quantify(q, 0)
	if err != nil {
		return nil, err
	}
	return Seq{found}, nil
}

// quantify returns true when the quantifier is satisfied by the bindings
// from clause i onward. For "some" it is an exists-scan (true short-
// circuits); for "every" a forall-scan (false short-circuits), expressed
// as its dual.
func (c *context) quantify(q *Quantified, i int) (bool, error) {
	if i == len(q.Clauses) {
		v, err := c.eval(q.Satisfies)
		if err != nil {
			return false, err
		}
		return EffectiveBool(v)
	}
	cl := q.Clauses[i]
	items, err := c.eval(cl.In)
	if err != nil {
		return false, err
	}
	saved, had := c.vars[cl.Var]
	defer c.restoreVar(cl.Var, saved, had)
	for _, it := range items {
		c.vars[cl.Var] = Seq{it}
		ok, err := c.quantify(q, i+1)
		if err != nil {
			return false, err
		}
		if ok != q.Every { // some: found a witness; every: found a violation
			return !q.Every, nil
		}
	}
	return q.Every, nil
}

// --- paths ---

func (c *context) evalPath(p *PathExpr) (Seq, error) {
	var cur Seq
	if p.Source == nil {
		if c.ctxItem == nil {
			return nil, fmt.Errorf("xquery: relative path %s has no context item", pathString(p.Steps))
		}
		cur = Seq{c.ctxItem}
	} else {
		s, err := c.eval(p.Source)
		if err != nil {
			return nil, err
		}
		cur = s
	}
	for _, st := range p.Steps {
		next, err := c.evalStep(cur, st)
		if err != nil {
			return nil, err
		}
		cur = next
		if len(cur) == 0 {
			return nil, nil
		}
	}
	return cur, nil
}

func (c *context) evalStep(cur Seq, st PathStep) (Seq, error) {
	var out Seq
	seen := make(map[*xmltree.Node]bool)
	for _, it := range cur {
		n, ok := NodeOf(it)
		if !ok {
			return nil, fmt.Errorf("xquery: path step /%s applied to atomic value %v", st.Name, it)
		}
		var matched []*xmltree.Node
		collect := func(cand *xmltree.Node) {
			if !seen[cand] {
				seen[cand] = true
				matched = append(matched, cand)
			}
		}
		if st.Descendant {
			n.Walk(func(d *xmltree.Node) bool {
				if stepMatches(st, d) {
					collect(d)
				}
				return true
			})
		} else {
			for _, ch := range n.Children {
				if stepMatches(st, ch) {
					collect(ch)
				}
			}
		}
		filtered, err := c.applyPreds(matched, st.Preds)
		if err != nil {
			return nil, err
		}
		for _, m := range filtered {
			out = append(out, m)
		}
	}
	return out, nil
}

func stepMatches(st PathStep, n *xmltree.Node) bool {
	switch {
	case st.Text:
		return n.Kind == xmltree.TextNode
	case st.Attr:
		return n.Kind == xmltree.AttributeNode && (st.Name == "*" || n.Name == st.Name)
	default:
		return n.Kind == xmltree.ElementNode && (st.Name == "*" || n.Name == st.Name)
	}
}

func (c *context) applyPreds(nodes []*xmltree.Node, preds []Expr) ([]*xmltree.Node, error) {
	cur := nodes
	for _, pred := range preds {
		// A literal number predicate is positional: Picture[2].
		if num, ok := pred.(*NumberLit); ok {
			i := int(num.Value)
			if i < 1 || i > len(cur) {
				cur = nil
			} else {
				cur = cur[i-1 : i]
			}
			continue
		}
		var kept []*xmltree.Node
		for _, n := range cur {
			saved := c.ctxItem
			c.ctxItem = n
			v, err := c.eval(pred)
			c.ctxItem = saved
			if err != nil {
				return nil, err
			}
			ok, err := EffectiveBool(v)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, n)
			}
		}
		cur = kept
	}
	return cur, nil
}

// --- FLWOR ---

// orderedTuple is one qualifying binding's return value with its sort
// keys, used by order-by evaluation.
type orderedTuple struct {
	keys  []Item // nil entries sort first (empty key)
	items Seq
}

type flworRun struct {
	f      *FLWOR
	out    *Seq
	tuples []orderedTuple // used instead of out when order by is present
}

func (c *context) evalFLWOR(f *FLWOR) (Seq, error) {
	var out Seq
	run := &flworRun{f: f, out: &out}
	if err := c.evalClauses(run, 0); err != nil {
		return nil, err
	}
	if len(f.OrderBy) == 0 {
		return out, nil
	}
	sort.SliceStable(run.tuples, func(i, j int) bool {
		for k := range f.OrderBy {
			cmp := CompareKeys(run.tuples[i].keys[k], run.tuples[j].keys[k])
			if cmp == 0 {
				continue
			}
			if f.OrderBy[k].Descending {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	for _, t := range run.tuples {
		out = append(out, t.items...)
	}
	return out, nil
}

func (c *context) evalClauses(run *flworRun, i int) error {
	f := run.f
	if i == len(f.Clauses) {
		if f.Where != nil {
			v, err := c.eval(f.Where)
			if err != nil {
				return err
			}
			ok, err := EffectiveBool(v)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		r, err := c.eval(f.Return)
		if err != nil {
			return err
		}
		if len(f.OrderBy) == 0 {
			*run.out = append(*run.out, r...)
			return nil
		}
		keys := make([]Item, len(f.OrderBy))
		for k, spec := range f.OrderBy {
			kv, err := c.eval(spec.Key)
			if err != nil {
				return err
			}
			if len(kv) > 0 {
				keys[k] = kv[0]
			}
		}
		run.tuples = append(run.tuples, orderedTuple{keys: keys, items: r})
		return nil
	}
	cl := f.Clauses[i]
	if cl.Let {
		v, err := c.eval(cl.In)
		if err != nil {
			return err
		}
		saved, had := c.vars[cl.Var]
		c.vars[cl.Var] = v
		err = c.evalClauses(run, i+1)
		c.restoreVar(cl.Var, saved, had)
		return err
	}
	// A for-clause over a collection-rooted path streams document by
	// document instead of materializing the whole collection.
	if coll, steps, ok := collectionRooted(cl.In); ok {
		return c.src.Docs(coll, c.hints.Scan(cl.In), func(d *xmltree.Document) error {
			items, err := c.stepsFrom(Seq{docNode(d)}, steps)
			if err != nil {
				return err
			}
			return c.bindEach(cl.Var, items, run, i)
		})
	}
	items, err := c.eval(cl.In)
	if err != nil {
		return err
	}
	return c.bindEach(cl.Var, items, run, i)
}

func (c *context) bindEach(name string, items Seq, run *flworRun, i int) error {
	saved, had := c.vars[name]
	defer c.restoreVar(name, saved, had)
	for _, it := range items {
		c.vars[name] = Seq{it}
		if err := c.evalClauses(run, i+1); err != nil {
			return err
		}
	}
	return nil
}

func (c *context) restoreVar(name string, saved Seq, had bool) {
	if had {
		c.vars[name] = saved
	} else {
		delete(c.vars, name)
	}
}

func (c *context) stepsFrom(cur Seq, steps []PathStep) (Seq, error) {
	for _, st := range steps {
		next, err := c.evalStep(cur, st)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// docNode wraps a document's root in a virtual document node so that the
// first location step matches the root element, as XQuery's document nodes
// do: collection("items")/Item selects the Item roots. The wrapper does
// not set the root's parent pointer; it is only ever traversed downward.
func docNode(d *xmltree.Document) *xmltree.Node {
	return &xmltree.Node{Kind: xmltree.ElementNode, Name: "#document", Children: []*xmltree.Node{d.Root}}
}

// DocNode is the exported form of the evaluator's virtual document
// wrapper; the compiled executor must bind the identical node shape so
// leading steps (including a wrapper-matching //*) behave the same.
func DocNode(d *xmltree.Document) *xmltree.Node { return docNode(d) }

// ItemNumber converts one item to a number under the evaluator's rules
// (booleans become 0/1, anything else atomizes then parses).
func ItemNumber(it Item) (float64, error) { return itemNumber(it) }

// CollectionRooted is the exported form of collectionRooted, used by the
// compiled executor to recognize scannable binding sources.
func CollectionRooted(e Expr) (collection string, steps []PathStep, ok bool) {
	return collectionRooted(e)
}

// collectionRooted recognizes collection("x")/step/... binding sources.
func collectionRooted(e Expr) (collection string, steps []PathStep, ok bool) {
	switch x := e.(type) {
	case *CollectionCall:
		return x.Name, nil, true
	case *PathExpr:
		if cc, isColl := x.Source.(*CollectionCall); isColl {
			return cc.Name, x.Steps, true
		}
	}
	return "", nil, false
}

// --- operators ---

func (c *context) evalBinary(b *Binary) (Seq, error) {
	switch b.Op {
	case OpAnd, OpOr:
		lv, err := c.eval(b.Left)
		if err != nil {
			return nil, err
		}
		lb, err := EffectiveBool(lv)
		if err != nil {
			return nil, err
		}
		if (b.Op == OpAnd && !lb) || (b.Op == OpOr && lb) {
			return Seq{lb}, nil
		}
		rv, err := c.eval(b.Right)
		if err != nil {
			return nil, err
		}
		rb, err := EffectiveBool(rv)
		if err != nil {
			return nil, err
		}
		return Seq{rb}, nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		lv, err := c.eval(b.Left)
		if err != nil {
			return nil, err
		}
		rv, err := c.eval(b.Right)
		if err != nil {
			return nil, err
		}
		return Seq{GeneralCompare(b.Op, lv, rv)}, nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		lv, err := c.evalNumber(b.Left)
		if err != nil {
			return nil, err
		}
		rv, err := c.evalNumber(b.Right)
		if err != nil {
			return nil, err
		}
		if lv == nil || rv == nil {
			return nil, nil // arithmetic over the empty sequence is empty
		}
		switch b.Op {
		case OpAdd:
			return Seq{*lv + *rv}, nil
		case OpSub:
			return Seq{*lv - *rv}, nil
		case OpMul:
			return Seq{*lv * *rv}, nil
		case OpDiv:
			return Seq{*lv / *rv}, nil
		default:
			return Seq{math.Mod(*lv, *rv)}, nil
		}
	default:
		return nil, fmt.Errorf("xquery: unknown operator %v", b.Op)
	}
}

func (c *context) evalNumber(e Expr) (*float64, error) {
	v, err := c.eval(e)
	if err != nil {
		return nil, err
	}
	if len(v) == 0 {
		return nil, nil
	}
	if len(v) > 1 {
		return nil, fmt.Errorf("xquery: arithmetic over a sequence of %d items", len(v))
	}
	f, err := itemNumber(v[0])
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// --- constructors ---

func (c *context) evalCtor(ct *ElementCtor) (*xmltree.Node, error) {
	el := xmltree.NewElement(ct.Name)
	for _, a := range ct.Attrs {
		v, err := c.eval(a.Value)
		if err != nil {
			return nil, err
		}
		el.Append(xmltree.NewAttr(a.Name, seqString(v)))
	}
	for _, ch := range ct.Children {
		v, err := c.eval(ch)
		if err != nil {
			return nil, err
		}
		for _, it := range v {
			if n, ok := NodeOf(it); ok {
				el.Append(n.Clone())
			} else {
				el.Append(xmltree.NewText(ItemString(it)))
			}
		}
	}
	return el, nil
}

// --- value helpers ---

// A DeferredNode is a node item whose tree is built on first use: a node
// a wire client received, kept as its frame's bytes until asked for
// (storage.DeferredNode). Node builds the tree on its first call and
// returns the same one on every call.
type DeferredNode interface{ Node() *xmltree.Node }

// NodeOf returns the node an item is — the item itself, or a
// DeferredNode's tree — and whether it is one. Whatever reads an item's
// tree unwraps it here.
func NodeOf(it Item) (*xmltree.Node, bool) {
	switch x := it.(type) {
	case *xmltree.Node:
		return x, true
	case DeferredNode:
		return x.Node(), true
	}
	return nil, false
}

// ItemString atomizes one item to its string value.
func ItemString(it Item) string {
	switch x := it.(type) {
	case *xmltree.Node:
		return x.Text()
	case DeferredNode:
		return x.Node().Text()
	case string:
		return x
	case float64:
		return formatNumber(x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprint(x)
	}
}

func formatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func itemNumber(it Item) (float64, error) {
	switch x := it.(type) {
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	default:
		f, ok := ParseNumber(ItemString(it))
		if !ok {
			return 0, fmt.Errorf("xquery: %q is not a number", strings.TrimSpace(ItemString(it)))
		}
		return f, nil
	}
}

func seqString(s Seq) string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = ItemString(it)
	}
	return strings.Join(parts, " ")
}

// EffectiveBool computes the effective boolean value of a sequence.
func EffectiveBool(s Seq) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	switch s[0].(type) {
	case *xmltree.Node, DeferredNode: // a DeferredNode's tree is not built
		return true, nil
	}
	if len(s) > 1 {
		return false, fmt.Errorf("xquery: effective boolean value of a %d-item atomic sequence", len(s))
	}
	switch x := s[0].(type) {
	case bool:
		return x, nil
	case string:
		return x != "", nil
	case float64:
		return x != 0 && !math.IsNaN(x), nil
	default:
		return false, fmt.Errorf("xquery: no effective boolean value for %T", x)
	}
}
