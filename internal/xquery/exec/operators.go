package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Batch sizing. tupleBatchSize bounds how many bound tuples accumulate
// before the filter/project stages run over them (the vectorization
// unit); yieldChunk bounds how many result items build up before they are
// pushed to the consumer. Both bound peak memory independently of result
// size — only order-by, which must see every tuple before emitting one,
// breaks that bound.
const (
	tupleBatchSize = 256
	yieldChunk     = 256
)

// errStop aborts a scan early once a decider (exists/empty) is resolved;
// it flows out through Source.Docs exactly like the coordinator's
// stream-cancellation sentinel and is swallowed by the fold driver.
var errStop = errors.New("exec: early stop")

// Run executes the program to a materialized sequence — the drop-in
// replacement for xquery.Eval.
func (p *Program) Run(src xquery.Source) (xquery.Seq, error) {
	if p.fold == foldNone {
		var out xquery.Seq
		err := p.pipe.run(src, func(items xquery.Seq) error {
			out = append(out, items...)
			return nil
		})
		return out, err
	}
	return p.runFold(src)
}

// Stream executes the program delivering result items through yield in
// bounded batches; the yielded Seq is owned by the consumer. Folds
// deliver their single result item in one call. Returns the total item
// count.
func (p *Program) Stream(src xquery.Source, yield func(xquery.Seq) error) (int, error) {
	if p.fold != foldNone {
		out, err := p.runFold(src)
		if err != nil {
			return 0, err
		}
		if len(out) > 0 {
			if err := yield(out); err != nil {
				return 0, err
			}
		}
		return len(out), nil
	}
	total := 0
	err := p.pipe.run(src, func(items xquery.Seq) error {
		total += len(items)
		return yield(items)
	})
	return total, err
}

// runFold consumes the pipeline's item stream into a single aggregate or
// decider item, mirroring the interpreter's evalFunc/aggregate exactly. A
// decider fold first asks a Decider source (Decides), so one its indexes
// answer decodes no document.
func (p *Program) runFold(src xquery.Source) (xquery.Seq, error) {
	if d, ok := src.(xquery.Decider); ok && p.ask != askNone {
		if n, ok := d.Decide(p.pipe.coll, p.pipe.hint, p.ask == askNodes); ok {
			if p.fold == foldCount {
				return xquery.Seq{float64(n)}, nil
			}
			return xquery.Seq{(n > 0) != (p.fold == foldEmpty)}, nil
		}
	}
	switch p.fold {
	case foldCount:
		var n int64
		err := p.pipe.run(src, func(items xquery.Seq) error {
			n += int64(len(items))
			return nil
		})
		if err != nil {
			return nil, err
		}
		return xquery.Seq{float64(n)}, nil
	case foldExists, foldEmpty:
		found := false
		err := p.pipe.runEager(src, func(items xquery.Seq) error {
			if len(items) > 0 {
				found = true
				return errStop // the first item decides; cancel the scan
			}
			return nil
		})
		if err != nil && err != errStop {
			return nil, err
		}
		if p.fold == foldEmpty {
			return xquery.Seq{!found}, nil
		}
		return xquery.Seq{found}, nil
	default: // sum/avg/min/max — numeric folds in stream order
		name := foldNames[p.fold]
		var acc float64
		var count int64
		err := p.pipe.run(src, func(items xquery.Seq) error {
			for _, it := range items {
				v, err := xquery.ItemNumber(it)
				if err != nil {
					return fmt.Errorf("%s(): %w", name, err)
				}
				switch {
				case count == 0:
					acc = v
				case p.fold == foldSum || p.fold == foldAvg:
					acc += v
				case p.fold == foldMin && v < acc:
					acc = v
				case p.fold == foldMax && v > acc:
					acc = v
				}
				count++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if count == 0 {
			if p.fold == foldSum {
				return xquery.Seq{0.0}, nil
			}
			return nil, nil // avg/min/max of empty is empty
		}
		if p.fold == foldAvg {
			acc /= float64(count)
		}
		return xquery.Seq{acc}, nil
	}
}

// executor is the per-run state: the current tuple batch, the output
// buffer, and every scratch buffer the operators reuse across documents
// so the steady-state scan→filter→project path allocates only for result
// growth.
type executor struct {
	p     *pipeline
	src   xquery.Source
	yield func(xquery.Seq) error
	eager bool // flush per document (decider folds)
	// ship is set when the scan may build returned nodes as shells;
	// shells, when one of them is in out.
	ship, shells bool

	row   []any // current partial tuple during binding
	level int   // slots of row currently bound (for fallback vars)
	batch []any // complete tuples, row-major, stride = p.stride
	n     int   // tuples in batch
	keep  []bool

	out    xquery.Seq     // output buffer; handed off at yieldChunk
	tuples []orderedTuple // order-by accumulation (the blocking operator)

	wrapper   xmltree.Node // reusable #document wrapper (freshWrapper off)
	scanItems []any        // scan binding items of the current document
	levelBufs [][]any      // per-clause iteration buffers
	wa, wb    []*xmltree.Node
	matchBuf  []*xmltree.Node
	ta, tb    []*xmltree.Node // term-walk scratch (pred-free, may nest inside wa/wb walks)
	vals      []string        // gathered comparison value column
	valOff    []int32         // per-gathered-tuple segment starts
	valIdx    []int32         // batch indexes of gathered tuples
	strWin    []byte          // string-term window across text nodes
	atom      xmltree.Node    // text node holding an atomic term base
	vars      map[string]xquery.Seq
}

type orderedTuple struct {
	keys  []keyVal
	items xquery.Seq
}

// keyVal is one order-by sort key, prepared once (numeric interpretation
// resolved) so the sort's pairwise comparisons reuse it.
type keyVal struct {
	present bool
	op      xquery.Operand
}

func (p *pipeline) run(src xquery.Source, yield func(xquery.Seq) error) error {
	return p.exec(src, yield, false)
}

// runEager flushes the tuple batch and output buffer after every
// document instead of at the batch/chunk watermarks, trading batch width
// for latency so decider folds (exists/empty) can cancel the scan at the
// first witness document.
func (p *pipeline) runEager(src xquery.Source, yield func(xquery.Seq) error) error {
	return p.exec(src, yield, true)
}

func (p *pipeline) exec(src xquery.Source, yield func(xquery.Seq) error, eager bool) error {
	x := &executor{
		p:     p,
		src:   src,
		yield: yield,
		eager: eager,
		row:   make([]any, p.stride),
		batch: make([]any, 0, tupleBatchSize*p.stride),
		keep:  make([]bool, tupleBatchSize),
	}
	x.wrapper = xmltree.Node{Kind: xmltree.ElementNode, Name: "#document", Children: make([]*xmltree.Node, 1)}
	x.levelBufs = make([][]any, len(p.clauses))
	var err error
	if s, ok := src.(Shipper); ok && p.shipHint != nil {
		x.ship = true
		err = s.ShipDocs(p.coll, p.shipHint, x.scanDoc, x)
	} else {
		err = src.Docs(p.coll, p.hint, x.scanDoc)
	}
	if err != nil {
		return err
	}
	if err := x.processBatch(); err != nil {
		return err
	}
	if len(p.orderBy) > 0 {
		return x.emitOrdered()
	}
	return x.flushOut()
}

// scanDoc binds one decoded document: wrap, apply the binding path, then
// recurse through the remaining clauses appending tuples to the batch.
func (x *executor) scanDoc(d *xmltree.Document) error {
	x.level = 0 // scan-step predicates see no variables
	var root *xmltree.Node
	if x.p.freshWrapper {
		root = xquery.DocNode(d)
	} else {
		// The wrapper cannot be selected by any step, so one struct serves
		// the whole scan: no per-document allocation.
		x.wrapper.Children[0] = d.Root
		root = &x.wrapper
	}
	x.wa = append(x.wa[:0], root)
	items, err := x.walkSteps(x.wa, x.p.scanSteps)
	if err != nil {
		return err
	}
	x.scanItems = x.scanItems[:0]
	for _, n := range items {
		x.scanItems = append(x.scanItems, n)
	}
	for _, it := range x.scanItems {
		x.row[0] = it
		x.level = 1
		if err := x.bindFrom(0); err != nil {
			return err
		}
	}
	if x.eager {
		if err := x.processBatch(); err != nil {
			return err
		}
		return x.flushOut()
	}
	return nil
}

// bindFrom evaluates clause ci..end against the current partial row,
// appending one tuple per complete binding.
func (x *executor) bindFrom(ci int) error {
	if ci == len(x.p.clauses) {
		return x.appendTuple()
	}
	cl := x.p.clauses[ci]
	if cl.let {
		v, err := x.evalValueSeq(cl.src)
		if err != nil {
			return err
		}
		x.row[cl.slot] = v
		x.level++
		err = x.bindFrom(ci + 1)
		x.level--
		return err
	}
	buf, err := x.bindItems(ci, cl.src)
	if err != nil {
		return err
	}
	for _, it := range buf {
		x.row[cl.slot] = it
		x.level++
		if err := x.bindFrom(ci + 1); err != nil {
			x.level--
			return err
		}
		x.level--
	}
	return nil
}

// bindItems evaluates a for-clause source into the clause's reusable
// iteration buffer (results must be copied out of the shared walk scratch
// before the recursion below reuses it).
func (x *executor) bindItems(ci int, ve valueExpr) ([]any, error) {
	buf := x.levelBufs[ci][:0]
	switch ve.kind {
	case veSlot:
		if x.p.letSlot[ve.slot] {
			seq, _ := x.row[ve.slot].(xquery.Seq)
			for _, it := range seq {
				buf = append(buf, it)
			}
		} else {
			buf = append(buf, x.row[ve.slot])
		}
	case veLit:
		buf = append(buf, ve.lit)
	case vePath:
		nodes, err := x.slotWalk(ve.slot, ve.rel)
		if err != nil {
			return nil, err
		}
		for _, n := range nodes {
			buf = append(buf, n)
		}
	case veCount:
		nodes, err := x.slotWalk(ve.slot, ve.rel)
		if err != nil {
			return nil, err
		}
		buf = append(buf, float64(len(nodes)))
	default: // veFallback
		seq, err := xquery.EvalWith(ve.expr, x.src, x.fallbackVars(x.row, x.level), nil)
		if err != nil {
			return nil, err
		}
		for _, it := range seq {
			buf = append(buf, it)
		}
	}
	x.levelBufs[ci] = buf
	return buf, nil
}

// evalValueSeq evaluates a value expression to an owned Seq (let
// bindings and return-value fallbacks need sequences that survive the
// scratch buffers).
func (x *executor) evalValueSeq(ve valueExpr) (xquery.Seq, error) {
	switch ve.kind {
	case veSlot:
		if x.p.letSlot[ve.slot] {
			seq, _ := x.row[ve.slot].(xquery.Seq)
			return seq, nil
		}
		return xquery.Seq{x.row[ve.slot]}, nil
	case veLit:
		return xquery.Seq{ve.lit}, nil
	case vePath:
		nodes, err := x.slotWalk(ve.slot, ve.rel)
		if err != nil {
			return nil, err
		}
		if len(nodes) == 0 {
			return nil, nil
		}
		seq := make(xquery.Seq, len(nodes))
		for i, n := range nodes {
			seq[i] = n
		}
		return seq, nil
	case veCount:
		nodes, err := x.slotWalk(ve.slot, ve.rel)
		if err != nil {
			return nil, err
		}
		return xquery.Seq{float64(len(nodes))}, nil
	default:
		return xquery.EvalWith(ve.expr, x.src, x.fallbackVars(x.row, x.level), nil)
	}
}

// slotWalk applies rel from the node in slot of the current row.
func (x *executor) slotWalk(slot int, rel []step) ([]*xmltree.Node, error) {
	base, err := x.baseNode(x.row, slot, rel)
	if err != nil || base == nil {
		return nil, err
	}
	x.wa = append(x.wa[:0], base)
	return x.walkSteps(x.wa, rel)
}

// baseNode resolves a slot to its node, reproducing the interpreter's
// error for a path step over an atomic value. A nil node with nil error
// means "empty": rel was empty and the caller handles the raw item.
func (x *executor) baseNode(row []any, slot int, rel []step) (*xmltree.Node, error) {
	v := row[slot]
	n, ok := xquery.NodeOf(v)
	if !ok {
		if len(rel) == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("xquery: path step /%s applied to atomic value %v", rel[0].name, v)
	}
	return n, nil
}

// appendTuple copies the completed row into the batch, running the batch
// stages when it fills.
func (x *executor) appendTuple() error {
	x.batch = append(x.batch, x.row...)
	x.n++
	if x.n == tupleBatchSize {
		return x.processBatch()
	}
	return nil
}

// processBatch runs filter → order-key/project over the accumulated
// tuples and resets the batch.
func (x *executor) processBatch() error {
	n := x.n
	if n == 0 {
		return nil
	}
	keep := x.keep[:n]
	for i := range keep {
		keep[i] = true
	}
	for _, ft := range x.p.filter {
		var err error
		if ft.native != nil {
			err = x.evalTermBatch(ft.native, keep)
		} else {
			err = x.evalFallbackTerm(ft.fallback, keep)
		}
		if err != nil {
			return err
		}
	}
	stride := x.p.stride
	for i := 0; i < n; i++ {
		if !keep[i] {
			continue
		}
		row := x.batch[i*stride : (i+1)*stride]
		if len(x.p.orderBy) > 0 {
			if err := x.collectOrdered(row); err != nil {
				return err
			}
			continue
		}
		if err := x.emitReturn(row); err != nil {
			return err
		}
	}
	x.batch = x.batch[:0]
	x.n = 0
	return nil
}

// evalTermBatch evaluates one native term across the batch. Existence
// and string terms test each live tuple's nodes directly and stop at the
// first hit; comparison terms run evalCmpBatch.
func (x *executor) evalTermBatch(t *term, keep []bool) error {
	if t.kind == termCmp {
		return x.evalCmpBatch(t, keep)
	}
	stride := x.p.stride
	for i := range keep {
		if !keep[i] {
			continue
		}
		row := x.batch[i*stride : (i+1)*stride]
		base, err := x.baseNode(row, t.slot, t.rel)
		if err != nil {
			return err
		}
		if base == nil { // atomic slot value, empty rel
			if t.kind == termExists {
				keep[i] = t.negate
				continue
			}
			x.atom = xmltree.Node{Kind: xmltree.TextNode, Value: xquery.ItemString(row[t.slot])}
			base = &x.atom
		}
		keep[i] = x.evalTermNode(t, base)
	}
	return nil
}

// evalCmpBatch evaluates a comparison term across the batch. The
// predicate's column — every candidate node value of every live tuple —
// is gathered into a shared scratch buffer first, then a single
// comparison loop tests the column against the literal prepared at
// compile time (existential within each tuple's segment). Tuples bound
// through the same clause share their binding's path shape, which is
// what makes one flat column per term meaningful.
func (x *executor) evalCmpBatch(t *term, keep []bool) error {
	stride := x.p.stride
	vals := x.vals[:0]
	offs := x.valOff[:0]
	idx := x.valIdx[:0]
	for i := range keep {
		if !keep[i] {
			continue
		}
		row := x.batch[i*stride : (i+1)*stride]
		offs = append(offs, int32(len(vals)))
		idx = append(idx, int32(i))
		base, err := x.baseNode(row, t.slot, t.rel)
		if err != nil {
			x.vals, x.valOff, x.valIdx = vals, offs, idx
			return err
		}
		if base == nil { // atomic slot value, empty rel: atomize the item
			vals = append(vals, xquery.ItemString(row[t.slot]))
			continue
		}
		if len(t.rel) == 0 {
			vals = append(vals, base.Text())
			continue
		}
		nodes := x.termWalk(base, t.rel)
		for _, n := range nodes {
			vals = append(vals, n.Text())
		}
	}
	offs = append(offs, int32(len(vals)))
	lit := t.lit
	for k, ti := range idx {
		hit := false
		for _, v := range vals[offs[k]:offs[k+1]] {
			if xquery.CompareValue(t.op, v, lit) {
				hit = true
				break
			}
		}
		if hit == t.negate {
			keep[ti] = false
		}
	}
	x.vals, x.valOff, x.valIdx = vals, offs, idx
	return nil
}

// evalFallbackTerm runs an uncompiled where-conjunct through the
// interpreter for each still-live tuple (conjunct short-circuiting is
// preserved: dead tuples never evaluate later terms).
func (x *executor) evalFallbackTerm(e xquery.Expr, keep []bool) error {
	stride := x.p.stride
	for i := range keep {
		if !keep[i] {
			continue
		}
		row := x.batch[i*stride : (i+1)*stride]
		v, err := xquery.EvalWith(e, x.src, x.fallbackVars(row, stride), nil)
		if err != nil {
			return err
		}
		ok, err := xquery.EffectiveBool(v)
		if err != nil {
			return err
		}
		if !ok {
			keep[i] = false
		}
	}
	return nil
}

// emitReturn projects one surviving tuple into the output buffer.
func (x *executor) emitReturn(row []any) error {
	from := len(x.out)
	if err := x.emitValue(x.p.ret, row, &x.out); err != nil {
		return err
	}
	if x.ship && !x.shells {
		for _, it := range x.out[from:] {
			if n, ok := it.(*xmltree.Node); ok && n.Partial() {
				x.shells = true
				break
			}
		}
	}
	if len(x.out) >= yieldChunk {
		return x.flushOut()
	}
	return nil
}

// emitValue appends a value expression's items to out. The hot return
// shapes ($v, $v/rel/path, count($v/rel)) run without interpreter
// involvement; anything else falls back per tuple.
func (x *executor) emitValue(ve valueExpr, row []any, out *xquery.Seq) error {
	switch ve.kind {
	case veSlot:
		if x.p.letSlot[ve.slot] {
			seq, _ := row[ve.slot].(xquery.Seq)
			*out = append(*out, seq...)
		} else {
			*out = append(*out, row[ve.slot])
		}
	case veLit:
		*out = append(*out, ve.lit)
	case vePath, veCount:
		base, err := x.baseNode(row, ve.slot, ve.rel)
		if err != nil {
			return err
		}
		var nodes []*xmltree.Node
		if base != nil {
			// Predicate fallbacks inside rel must see this tuple's
			// bindings, not whatever row is mid-binding in the scan.
			savedRow, savedLevel := x.row, x.level
			x.row, x.level = row, len(row)
			x.wa = append(x.wa[:0], base)
			nodes, err = x.walkSteps(x.wa, ve.rel)
			x.row, x.level = savedRow, savedLevel
			if err != nil {
				return err
			}
		}
		if ve.kind == veCount {
			*out = append(*out, float64(len(nodes)))
		} else {
			for _, n := range nodes {
				*out = append(*out, n)
			}
		}
	default:
		seq, err := xquery.EvalWith(ve.expr, x.src, x.fallbackVars(row, len(row)), nil)
		if err != nil {
			return err
		}
		*out = append(*out, seq...)
	}
	return nil
}

// flushOut hands the output buffer to the consumer. Ownership transfers,
// so a fresh buffer starts the next chunk — this is what keeps peak heap
// flat: at most one chunk is in flight here regardless of result size.
func (x *executor) flushOut() error {
	if len(x.out) == 0 {
		return nil
	}
	out := x.out
	x.out, x.shells = nil, false
	return x.yield(out)
}

// Flush implements Flusher: it runs the pending tuples and, when the
// output holds a shell, hands it on. A Shipper calls it before it drops
// the records the shells' bytes are in. Output without a shell waits for
// a full chunk as usual, so the call allocates nothing then.
func (x *executor) Flush() error {
	if err := x.processBatch(); err != nil {
		return err
	}
	if !x.shells {
		return nil
	}
	return x.flushOut()
}

// collectOrdered materializes one qualifying tuple with its sort keys.
func (x *executor) collectOrdered(row []any) error {
	keys := make([]keyVal, len(x.p.orderBy))
	var scratch xquery.Seq
	for k, spec := range x.p.orderBy {
		scratch = scratch[:0]
		if err := x.emitValue(spec.key, row, &scratch); err != nil {
			return err
		}
		if len(scratch) > 0 {
			keys[k] = keyVal{present: true, op: xquery.PrepOperand(xquery.ItemString(scratch[0]))}
		}
	}
	var items xquery.Seq
	if err := x.emitValue(x.p.ret, row, &items); err != nil {
		return err
	}
	x.tuples = append(x.tuples, orderedTuple{keys: keys, items: items})
	return nil
}

// emitOrdered sorts the materialized tuples (stable, empty keys first,
// shared key semantics) and streams them out in chunks.
func (x *executor) emitOrdered() error {
	specs := x.p.orderBy
	sort.SliceStable(x.tuples, func(i, j int) bool {
		a, b := x.tuples[i].keys, x.tuples[j].keys
		for k := range specs {
			cmp := compareKeyVals(a[k], b[k])
			if cmp == 0 {
				continue
			}
			if specs[k].desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	for _, t := range x.tuples {
		x.out = append(x.out, t.items...)
		if len(x.out) >= yieldChunk {
			if err := x.flushOut(); err != nil {
				return err
			}
		}
	}
	return x.flushOut()
}

func compareKeyVals(a, b keyVal) int {
	switch {
	case !a.present && !b.present:
		return 0
	case !a.present:
		return -1
	case !b.present:
		return 1
	}
	return xquery.CompareKeyOperands(a.op, b.op)
}

// fallbackVars rebuilds the interpreter's variable environment from the
// first nslots slots of a tuple row, reusing one map across calls (the
// interpreter restores any binding it changes, so the map survives
// EvalWith intact).
func (x *executor) fallbackVars(row []any, nslots int) map[string]xquery.Seq {
	if x.vars == nil {
		x.vars = make(map[string]xquery.Seq, x.p.stride)
	} else {
		for k := range x.vars {
			delete(x.vars, k)
		}
	}
	for s := 0; s < nslots; s++ {
		name := x.p.varNames[s]
		if name == "" {
			continue
		}
		if x.p.letSlot[s] {
			seq, _ := row[s].(xquery.Seq)
			x.vars[name] = seq
		} else {
			x.vars[name] = xquery.Seq{row[s]}
		}
	}
	return x.vars
}

// --- path-step evaluation ---

// walkSteps applies compiled steps to cur, mirroring the interpreter's
// evalStep exactly: per-parent match lists (so positional predicates are
// per source node), shared duplicate suppression across parents, and
// predicates applied per parent. The suppression map is only allocated
// when it can actually fire — a descendant step over more than one
// context node, where one context may be an ancestor of another; child
// steps of distinct parents are always disjoint, and a descendant walk
// from a single node visits each node once.
//
// cur must alias x.wa (callers seed it there); the result aliases one of
// the two ping-pong buffers and is valid until the next walkSteps call.
func (x *executor) walkSteps(cur []*xmltree.Node, steps []step) ([]*xmltree.Node, error) {
	a, b := cur, x.wb[:0]
	for si := range steps {
		st := &steps[si]
		var seen map[*xmltree.Node]bool
		if st.descendant && len(a) > 1 {
			seen = make(map[*xmltree.Node]bool, len(a))
		}
		for _, n := range a {
			matched := x.matchBuf[:0]
			if st.descendant {
				n.Walk(func(d *xmltree.Node) bool {
					if stepMatch(st, d) && (seen == nil || !seen[d]) {
						if seen != nil {
							seen[d] = true
						}
						matched = append(matched, d)
					}
					return true
				})
			} else {
				for _, ch := range n.Children {
					if stepMatch(st, ch) {
						matched = append(matched, ch)
					}
				}
			}
			x.matchBuf = matched[:0]
			filtered, err := x.applyPreds(matched, st.preds)
			if err != nil {
				return nil, err
			}
			b = append(b, filtered...)
		}
		a, b = b, a[:0]
	}
	// Store the grown buffers back; a holds the result.
	x.wa, x.wb = a, b
	return a, nil
}

func stepMatch(st *step, n *xmltree.Node) bool {
	switch {
	case st.text:
		return n.Kind == xmltree.TextNode
	case st.attr:
		return n.Kind == xmltree.AttributeNode && (st.name == "*" || n.Name == st.name)
	default:
		return n.Kind == xmltree.ElementNode && (st.name == "*" || n.Name == st.name)
	}
}

// applyPreds filters one parent's match list through the step's
// predicates in order, in place.
func (x *executor) applyPreds(nodes []*xmltree.Node, preds []pred) ([]*xmltree.Node, error) {
	cur := nodes
	for pi := range preds {
		pd := &preds[pi]
		switch pd.kind {
		case predPositional:
			if pd.pos < 1 || pd.pos > len(cur) {
				cur = cur[:0]
			} else {
				cur = cur[pd.pos-1 : pd.pos]
			}
		case predTerm:
			kept := cur[:0]
			for _, n := range cur {
				if x.evalTermNode(pd.term, n) {
					kept = append(kept, n)
				}
			}
			cur = kept
		default: // predFallback
			kept := cur[:0]
			for _, n := range cur {
				v, err := xquery.EvalWith(pd.fallback, x.src, x.fallbackVars(x.row, x.level), n)
				if err != nil {
					return nil, err
				}
				ok, err := xquery.EffectiveBool(v)
				if err != nil {
					return nil, err
				}
				if ok {
					kept = append(kept, n)
				}
			}
			cur = kept
		}
	}
	return cur, nil
}

// evalTermNode evaluates a native term against a single base node: the
// context node of a step predicate, or a where-term's tuple binding.
func (x *executor) evalTermNode(t *term, base *xmltree.Node) bool {
	var hit bool
	switch t.kind {
	case termExists:
		hit = stepsExist(base, t.rel, 0)
	case termCmp:
		if len(t.rel) == 0 {
			hit = xquery.CompareValue(t.op, base.Text(), t.lit)
		} else {
			for _, n := range x.termWalk(base, t.rel) {
				if xquery.CompareValue(t.op, n.Text(), t.lit) {
					hit = true
					break
				}
			}
		}
	default: // termString
		if len(t.rel) == 0 {
			hit = x.stringTermHit(t, base)
		} else {
			for _, n := range x.termWalk(base, t.rel) {
				if x.stringTermHit(t, n) {
					hit = true
					break
				}
			}
		}
	}
	return hit != t.negate
}

// stringTermHit reports whether n's string value (n.Text()) satisfies
// the string term t, without building that value: it streams over n's
// text nodes in document order and stops as soon as the answer is known.
// contains carries the last len(needle)-1 bytes across text-node
// boundaries, starts-with stops after len(needle) bytes, and ends-with
// keeps a len(needle)-byte suffix window. The windows live in executor
// scratch, so a test allocates nothing in the steady state.
func (x *executor) stringTermHit(t *term, n *xmltree.Node) bool {
	needle := t.needle
	if needle == "" {
		return true
	}
	win := x.strWin[:0]
	var hit bool
	switch t.fn {
	case fnContains:
		k := len(needle) - 1
		n.EachText(func(s string) bool {
			// A match that starts in the window and ends in s.
			nw := len(win)
			if nw > 0 {
				win = append(win, s[:min(len(s), k)]...)
				for i := 0; i < nw && i+len(needle) <= len(win); i++ {
					if string(win[i:i+len(needle)]) == needle {
						hit = true
						return false
					}
				}
			}
			if strings.Contains(s, needle) {
				hit = true
				return false
			}
			win = keepTail(win[:nw], s, k)
			return true
		})
	case fnStartsWith:
		rest := needle
		n.EachText(func(s string) bool {
			m := min(len(s), len(rest))
			if s[:m] != rest[:m] {
				return false
			}
			rest = rest[m:]
			return rest != ""
		})
		hit = rest == ""
	default: // fnEndsWith
		n.EachText(func(s string) bool {
			win = keepTail(win, s, len(needle))
			return true
		})
		hit = string(win) == needle
	}
	x.strWin = win[:0]
	return hit
}

// keepTail appends s to the window w and keeps only its last k bytes.
func keepTail(w []byte, s string, k int) []byte {
	if len(s) >= k {
		return append(w[:0], s[len(s)-k:]...)
	}
	w = append(w, s...)
	if over := len(w) - k; over > 0 {
		w = w[:copy(w, w[over:])]
	}
	return w
}

// termWalk applies a pred-free relative path from one base node using
// the term scratch buffers (terms may be evaluated from inside a
// walkSteps predicate, so they cannot share wa/wb). No duplicate
// suppression: terms are existential, duplicates cannot change them.
func (x *executor) termWalk(base *xmltree.Node, rel []step) []*xmltree.Node {
	a := append(x.ta[:0], base)
	b := x.tb[:0]
	for si := range rel {
		st := &rel[si]
		for _, n := range a {
			if st.descendant {
				n.Walk(func(d *xmltree.Node) bool {
					if stepMatch(st, d) {
						b = append(b, d)
					}
					return true
				})
			} else {
				for _, ch := range n.Children {
					if stepMatch(st, ch) {
						b = append(b, ch)
					}
				}
			}
		}
		a, b = b, a[:0]
	}
	x.ta, x.tb = a, b
	return a
}

// stepsExist reports whether any node matches rel from base, with full
// short-circuiting (xmltree.Walk can only prune subtrees, so the
// descendant case recurses manually to abort the whole walk).
func stepsExist(base *xmltree.Node, rel []step, i int) bool {
	if i == len(rel) {
		return true
	}
	st := &rel[i]
	if st.descendant {
		return descendantExists(base, st, rel, i)
	}
	for _, ch := range base.Children {
		if stepMatch(st, ch) && stepsExist(ch, rel, i+1) {
			return true
		}
	}
	return false
}

func descendantExists(n *xmltree.Node, st *step, rel []step, i int) bool {
	if stepMatch(st, n) && stepsExist(n, rel, i+1) {
		return true
	}
	for _, ch := range n.Children {
		if descendantExists(ch, st, rel, i) {
			return true
		}
	}
	return false
}
