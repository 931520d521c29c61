package engine

import (
	"sort"
	"strings"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Path summary + value index (the DataGuide half of the docIndex).
//
// Every distinct root-to-node label path of a collection — e.g.
// "Item/Price" or "Item/@id"; components joined with "/", attributes
// prefixed "@" (both characters are illegal in XML names, so the encoding
// is unambiguous) — maps to the documents containing a node at that path
// plus per-doc node counts (pathPosting). Separately, each path maps to
// the distinct node string-values occurring at it, sorted, with typed
// (numeric) ordering maintained on the side (valueList), so equality and
// range constraints resolve to doc sets by binary search.
//
// Values are the XPath string value of the node (xmltree.Node.Text), the
// exact operand the evaluator's atomicCompare sees. Values longer than
// valueCap bytes are not stored; the doc instead lands on the path's
// overflow list, which every comparison result includes — pruning stays a
// sound superset, and such a list is not exact (candidates), so no
// decider is answered from it.

// valueCap bounds stored node values. Typical comparison operands (codes,
// dates, prices) are far below it; whole-subtree concatenations of large
// elements fall to the overflow list instead of bloating the index.
const valueCap = 128

// pathComp is one parsed component of a label path key.
type pathComp struct {
	name string
	attr bool
}

// pathPosting is the summary entry of one label path: the docs containing
// it (sorted) and, parallel to ids, how many nodes each doc has at the
// path — what answers a count of the nodes at a path without decoding.
type pathPosting struct {
	comps  []pathComp
	ids    []docID
	counts []uint32
}

func (p *pathPosting) insert(id docID, count uint32) {
	i := sort.Search(len(p.ids), func(i int) bool { return p.ids[i] >= id })
	if i < len(p.ids) && p.ids[i] == id {
		p.counts[i] = count
		return
	}
	p.ids = append(p.ids, 0)
	copy(p.ids[i+1:], p.ids[i:])
	p.ids[i] = id
	p.counts = append(p.counts, 0)
	copy(p.counts[i+1:], p.counts[i:])
	p.counts[i] = count
}

func (p *pathPosting) remove(id docID) {
	i := sort.Search(len(p.ids), func(i int) bool { return p.ids[i] >= id })
	if i >= len(p.ids) || p.ids[i] != id {
		return
	}
	p.ids = append(p.ids[:i], p.ids[i+1:]...)
	p.counts = append(p.counts[:i], p.counts[i+1:]...)
}

// sortByID co-sorts ids and counts after bulk appends.
func (p *pathPosting) sortByID() { sort.Sort((*postingByID)(p)) }

type postingByID pathPosting

func (s *postingByID) Len() int           { return len(s.ids) }
func (s *postingByID) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *postingByID) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.counts[i], s.counts[j] = s.counts[j], s.counts[i]
}

// valueEntry is one distinct node value at a path with its posting list.
// num/isNum cache the numeric interpretation under the evaluator's rule
// (ParseFloat of the space-trimmed string).
type valueEntry struct {
	raw   string
	num   float64
	isNum bool
	ids   []docID
}

// valueList is the value index of one path. entries is sorted by raw
// value (the string comparison order); numOrder indexes the numeric
// entries sorted by num (NaN excluded: under the evaluator's semantics a
// NaN never satisfies =, <, <=, > or >=) and is rebuilt lazily.
type valueList struct {
	entries  []valueEntry
	numOrder []int32
	numDirty bool
	overflow []docID // docs with an over-cap value at this path, sorted
	members  members // membership filter over the entries' values (members.go)
}

// parseNum is the evaluator's numeric interpretation (xquery.ParseNumber),
// shared so the index can never drift from the comparison semantics.
func parseNum(raw string) (float64, bool) { return xquery.ParseNumber(raw) }

func newValueEntry(raw string) valueEntry {
	e := valueEntry{raw: raw}
	e.num, e.isNum = parseNum(raw)
	return e
}

// find returns the index of raw in entries and whether it is present.
func (vl *valueList) find(raw string) (int, bool) {
	i := sort.Search(len(vl.entries), func(i int) bool { return vl.entries[i].raw >= raw })
	return i, i < len(vl.entries) && vl.entries[i].raw == raw
}

func (vl *valueList) insert(raw string, id docID) {
	i, ok := vl.find(raw)
	if !ok {
		vl.entries = append(vl.entries, valueEntry{})
		copy(vl.entries[i+1:], vl.entries[i:])
		vl.entries[i] = newValueEntry(raw)
		vl.numDirty = true
		vl.members.add(&vl.entries[i])
	}
	vl.entries[i].ids = insertSorted(vl.entries[i].ids, id)
}

func (vl *valueList) remove(raw string, id docID) {
	i, ok := vl.find(raw)
	if !ok {
		return
	}
	vl.entries[i].ids = removeSorted(vl.entries[i].ids, id)
	if len(vl.entries[i].ids) == 0 {
		vl.entries = append(vl.entries[:i], vl.entries[i+1:]...)
		vl.numDirty = true
	}
}

func (vl *valueList) empty() bool {
	return len(vl.entries) == 0 && len(vl.overflow) == 0
}

// numeric returns numOrder, rebuilding it if stale.
func (vl *valueList) numeric() []int32 {
	if vl.numDirty || (vl.numOrder == nil && len(vl.entries) > 0) {
		vl.numOrder = vl.numOrder[:0]
		for i, e := range vl.entries {
			if e.isNum && e.num == e.num { // exclude NaN
				vl.numOrder = append(vl.numOrder, int32(i))
			}
		}
		es := vl.entries
		sort.Slice(vl.numOrder, func(a, b int) bool {
			return es[vl.numOrder[a]].num < es[vl.numOrder[b]].num
		})
		vl.numDirty = false
	}
	return vl.numOrder
}

// matchEntries calls fn for every entry whose value satisfies `value OP
// lit` under the evaluator's general-comparison semantics: numeric when
// both sides parse as numbers, raw string comparison otherwise. The
// matching sets resolve by binary search over the two sorted orders.
func (vl *valueList) matchEntries(op xquery.CmpOp, lit string, fn func(*valueEntry)) {
	litNum, litIsNum := parseNum(lit)
	if litIsNum && litNum != litNum {
		// A NaN literal: numeric values compare numerically against it and
		// never satisfy =, <, <=, > or >=; only non-numeric values fall
		// back to the string comparison.
		for i := range vl.entries {
			if !vl.entries[i].isNum && stringCmp(op, vl.entries[i].raw, lit) {
				fn(&vl.entries[i])
			}
		}
		return
	}
	if litIsNum {
		// Numeric entries compare numerically against the literal…
		num := vl.numeric()
		lo := sort.Search(len(num), func(i int) bool { return vl.entries[num[i]].num >= litNum })
		hi := sort.Search(len(num), func(i int) bool { return vl.entries[num[i]].num > litNum })
		var from, to int
		switch op {
		case xquery.CmpEq:
			from, to = lo, hi
		case xquery.CmpLt:
			from, to = 0, lo
		case xquery.CmpLe:
			from, to = 0, hi
		case xquery.CmpGt:
			from, to = hi, len(num)
		case xquery.CmpGe:
			from, to = lo, len(num)
		}
		for _, ei := range num[from:to] {
			fn(&vl.entries[ei])
		}
		// …and non-numeric entries fall back to string comparison.
		for i := range vl.entries {
			if !vl.entries[i].isNum && stringCmp(op, vl.entries[i].raw, lit) {
				fn(&vl.entries[i])
			}
		}
		return
	}
	// Non-numeric literal (including "NaN"): every comparison is a string
	// comparison, over the raw-sorted entries.
	lo, _ := vl.find(lit)
	hi := sort.Search(len(vl.entries), func(i int) bool { return vl.entries[i].raw > lit })
	var from, to int
	switch op {
	case xquery.CmpEq:
		from, to = lo, hi
	case xquery.CmpLt:
		from, to = 0, lo
	case xquery.CmpLe:
		from, to = 0, hi
	case xquery.CmpGt:
		from, to = hi, len(vl.entries)
	case xquery.CmpGe:
		from, to = lo, len(vl.entries)
	}
	for i := from; i < to; i++ {
		fn(&vl.entries[i])
	}
}

// stringCmp is the string-comparison branch of the shared general-
// comparison semantics: both operands presented as non-numeric, so
// xquery.CompareOperands resolves them lexicographically.
func stringCmp(op xquery.CmpOp, val, lit string) bool {
	bop, ok := xquery.CmpToBinaryOp(op)
	if !ok {
		return false
	}
	return xquery.CompareOperands(bop, xquery.Operand{Raw: val}, xquery.Operand{Raw: lit})
}

// docContrib is what one document contributes to the path structures,
// collected without holding any lock.
type docContrib struct {
	counts   map[string]uint32   // path key → node count
	values   map[string][]string // path key → distinct capped values
	overflow map[string]bool     // path keys with an over-cap value
}

func newDocContrib() *docContrib {
	return &docContrib{
		counts:   map[string]uint32{},
		values:   map[string][]string{},
		overflow: map[string]bool{},
	}
}

// collectDocPaths walks a document and records, per label path, the node
// count and the distinct node values (the node's XPath string value,
// capped at valueCap).
func collectDocPaths(doc *xmltree.Document) *docContrib {
	c := newDocContrib()
	var visit func(n *xmltree.Node, key string)
	visit = func(n *xmltree.Node, key string) {
		c.counts[key]++
		if val, over := textCapped(n); over {
			c.overflow[key] = true
		} else {
			c.addValue(key, val)
		}
		for _, ch := range n.Children {
			switch ch.Kind {
			case xmltree.ElementNode:
				visit(ch, key+"/"+ch.Name)
			case xmltree.AttributeNode:
				akey := key + "/@" + ch.Name
				c.counts[akey]++
				if val, over := textCapped(ch); over {
					c.overflow[akey] = true
				} else {
					c.addValue(akey, val)
				}
			}
		}
	}
	// The root key is the one key not built by concatenation: clone it so
	// the index does not pin the decoded document's name table.
	visit(doc.Root, strings.Clone(doc.Root.Name))
	return c
}

func (c *docContrib) addValue(key, val string) {
	for _, v := range c.values[key] {
		if v == val {
			return
		}
	}
	c.values[key] = append(c.values[key], val)
}

// textCapped computes a node's XPath string value exactly as
// xmltree.Node.Text does, bailing out once the value exceeds valueCap.
// The value is always a copy, so the index never pins a decoded
// document's text.
func textCapped(n *xmltree.Node) (string, bool) {
	var sb strings.Builder
	over := !n.EachText(func(s string) bool {
		sb.WriteString(s)
		return sb.Len() <= valueCap
	})
	return sb.String(), over
}

// parsePathKey splits a stored key back into components ("/" join, "@"
// attribute prefix).
func parsePathKey(key string) []pathComp {
	return appendPathComps(make([]pathComp, 0, strings.Count(key, "/")+1), key)
}

// appendPathComps appends the components of key to comps.
func appendPathComps(comps []pathComp, key string) []pathComp {
	for {
		p, rest, more := strings.Cut(key, "/")
		if name, attr := strings.CutPrefix(p, "@"); attr {
			comps = append(comps, pathComp{name: name, attr: true})
		} else {
			comps = append(comps, pathComp{name: p})
		}
		if !more {
			return comps
		}
		key = rest
	}
}

// matchLabelPath reports whether a root-to-node label path matches a
// pattern. The pattern mirrors the evaluator's step semantics exactly: a
// child step consumes one component; a descendant step (//) may match the
// context node itself — evalStep's Walk starts at the context node — or
// any deeper component. A node is selected by a predicate-free label path
// iff its label path matches (each node has exactly one label path, so
// summary counts count each node once).
func matchLabelPath(steps []xquery.LabelStep, comps []pathComp) bool {
	return matchFrom(steps, comps, 0, 0)
}

func matchFrom(steps []xquery.LabelStep, comps []pathComp, i, j int) bool {
	if i == len(steps) {
		return j == len(comps)
	}
	st := steps[i]
	if st.Descendant {
		// Self-match: at the query root the context is the virtual
		// #document wrapper, which only a "*" step matches (a fold whose
		// binding may be the wrapper never asks for an exact answer; for
		// pruning, accepting it is sound — it can only widen the
		// candidate set).
		if j == 0 {
			if st.Name == "*" && !st.Attr && matchFrom(steps, comps, i+1, 0) {
				return true
			}
		} else if compMatch(st, comps[j-1]) && matchFrom(steps, comps, i+1, j) {
			return true
		}
		for k := j; k < len(comps); k++ {
			if compMatch(st, comps[k]) && matchFrom(steps, comps, i+1, k+1) {
				return true
			}
		}
		return false
	}
	if j < len(comps) && compMatch(st, comps[j]) {
		return matchFrom(steps, comps, i+1, j+1)
	}
	return false
}

func compMatch(st xquery.LabelStep, c pathComp) bool {
	return st.Attr == c.attr && (st.Name == "*" || st.Name == c.name)
}

// --- mutation (callers hold ix.mu) ---

func (ix *docIndex) pathOrCreate(key string) *pathPosting {
	p := ix.paths[key]
	if p == nil {
		p = &pathPosting{comps: parsePathKey(key)}
		ix.paths[key] = p
	}
	return p
}

func (ix *docIndex) valuesOrCreate(key string) *valueList {
	vl := ix.values[key]
	if vl == nil {
		vl = &valueList{}
		ix.values[key] = vl
	}
	return vl
}

func (ix *docIndex) addPathsLocked(id docID, c *docContrib) {
	for key, count := range c.counts {
		ix.pathOrCreate(key).insert(id, count)
		values, over := c.values[key], c.overflow[key]
		if len(values) == 0 && !over {
			continue
		}
		vl := ix.valuesOrCreate(key)
		for _, raw := range values {
			vl.insert(raw, id)
		}
		if over {
			vl.overflow = insertSorted(vl.overflow, id)
		}
	}
}

// removePathsLocked undoes what addPathsLocked added for c.
func (ix *docIndex) removePathsLocked(id docID, c *docContrib) {
	for key := range c.counts {
		if p := ix.paths[key]; p != nil {
			p.remove(id)
			if len(p.ids) == 0 {
				delete(ix.paths, key)
			}
		}
		vl := ix.values[key]
		if vl == nil {
			continue
		}
		for _, raw := range c.values[key] {
			vl.remove(raw, id)
		}
		if c.overflow[key] {
			vl.overflow = removeSorted(vl.overflow, id)
		}
		if vl.empty() {
			delete(ix.values, key)
		}
	}
}

// --- queries (callers hold ix.mu) ---

// pathExistsLocked returns the posting lists of every path key matching
// the pattern; their union is the docs containing such a node.
func (ix *docIndex) pathExistsLocked(steps []xquery.LabelStep) [][]docID {
	var lists [][]docID
	for _, p := range ix.paths {
		if matchLabelPath(steps, p.comps) {
			lists = append(lists, p.ids)
		}
	}
	return lists
}

// valueMatchesLocked returns the posting lists whose union is the docs
// that may contain a node at the constraint's path whose value satisfies
// the comparison: the matching value entries' postings plus every overflow
// list of the matched paths (their values were not indexed, so they might
// match), and whether any of those overflow lists is non-empty.
func (ix *docIndex) valueMatchesLocked(pc *xquery.PathConstraint) (lists [][]docID, overflow bool) {
	for key, vl := range ix.values {
		p := ix.paths[key]
		if p == nil || !matchLabelPath(pc.Steps, p.comps) {
			continue
		}
		vl.matchEntries(pc.Op, pc.Literal, func(e *valueEntry) {
			lists = append(lists, e.ids)
		})
		lists = append(lists, vl.overflow)
		overflow = overflow || len(vl.overflow) > 0
	}
	return lists, overflow
}

// countNodes returns the number of nodes at the label path of the hint's
// one Path constraint, an existence test, from the path summary's node
// counts; ok is false for a hint with any other Path constraint.
func (ix *docIndex) countNodes(hint *xquery.Hint) (n int64, ok bool) {
	var path *xquery.PathConstraint
	for _, c := range hint.Constraints {
		if c.Path == nil {
			continue
		}
		if path != nil || c.Path.Op != xquery.CmpExists {
			return 0, false
		}
		path = c.Path
	}
	if path == nil {
		return 0, false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, p := range ix.paths {
		if matchLabelPath(path.Steps, p.comps) {
			for _, c := range p.counts {
				n += int64(c)
			}
		}
	}
	return n, true
}
