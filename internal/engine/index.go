package engine

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// docID is an interned document name. IDs are dense, assigned on first
// add and recycled on remove, so posting lists stay compact []docID
// slices instead of the map-of-maps the first engine version used.
type docID uint32

// docIndex holds one collection's indexes:
//
//   - an inverted text index (token → sorted posting list, with a sorted
//     vocabulary for substring constraints) — tokenization matches
//     xquery.Tokenize, which is what makes hints sound;
//   - a DataGuide-style path summary, the one structural index: every
//     distinct root-to-node label path → the docs containing it, with
//     per-doc node counts (pathindex.go);
//   - a typed value index: label path → sorted node values → postings,
//     answering equality and range constraints by binary search.
//
// The index keeps no record of what each document contributed. A delete
// or replace undoes the old version's entries from its stored record: the
// engine decodes it and runs the prepDoc the put ran (DB.storedPrep), so
// remove costs the document's own vocabulary and the index's memory
// follows its postings alone. A document whose record cannot be read is
// swept from every list instead.
//
// All methods lock ix.mu, so an index is safe for concurrent readers and
// writers regardless of which engine lock the caller holds; the engine's
// db.mu only guards the collection → index map itself.
type docIndex struct {
	mu sync.Mutex

	names []string         // docID → name; "" marks a recycled slot
	ids   map[string]docID // name → docID
	free  []docID          // recycled slots, reused before growing names

	postings map[string][]docID // token → sorted docIDs

	vocab []string // sorted tokens; rebuilt lazily, immutable once built
	dirty bool

	paths  map[string]*pathPosting // label path key → docs + node counts
	values map[string]*valueList   // label path key → value index
}

func newDocIndex() *docIndex {
	return &docIndex{
		ids:      map[string]docID{},
		postings: map[string][]docID{},
		paths:    map[string]*pathPosting{},
		values:   map[string]*valueList{},
	}
}

// intern returns the docID for name, assigning one if needed. Callers
// hold ix.mu.
func (ix *docIndex) intern(name string) docID {
	if id, ok := ix.ids[name]; ok {
		return id
	}
	var id docID
	if n := len(ix.free); n > 0 {
		id = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.names[id] = name
	} else {
		id = docID(len(ix.names))
		ix.names = append(ix.names, name)
	}
	ix.ids[name] = id
	return id
}

// insertSorted adds id to a sorted posting list, keeping it sorted.
func insertSorted(list []docID, id docID) []docID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	if i < len(list) && list[i] == id {
		return list
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = id
	return list
}

// removeSorted deletes id from a sorted posting list if present.
func removeSorted(list []docID, id docID) []docID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	if i >= len(list) || list[i] != id {
		return list
	}
	return append(list[:i], list[i+1:]...)
}

// docPrep is everything a document contributes to the indexes, computed
// outside any lock.
type docPrep struct {
	name    string
	tokens  []string
	contrib *docContrib
}

// prepDoc clones every token it keeps: the index outlives the document,
// and a decoded document's strings alias one per-document string
// (Tokenize returns already-lower-case tokens unchanged), so an uncloned
// token would pin all of its document's text. The membership test comes
// first because assigning an existing string key replaces the key.
func prepDoc(doc *xmltree.Document) docPrep {
	tokens := map[string]bool{}
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.TextNode {
			for _, tok := range xquery.Tokenize(n.Value) {
				if !tokens[tok] {
					tokens[strings.Clone(tok)] = true
				}
			}
		}
		return true
	})
	p := docPrep{name: doc.Name, contrib: collectDocPaths(doc)}
	for tok := range tokens {
		p.tokens = append(p.tokens, tok)
	}
	return p
}

// holds reports whether the index holds a document of that name.
func (ix *docIndex) holds(name string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	_, ok := ix.ids[name]
	return ok
}

// replace drops name's old version (see dropLocked) and adds p, whose
// contribution the caller computed outside every lock, under a single lock
// acquisition: the critical section is pure map and posting-list upkeep.
func (ix *docIndex) replace(old *docPrep, p docPrep) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.dropLocked(p.name, old)
	ix.addPrepLocked(p)
}

func (ix *docIndex) addPrepLocked(p docPrep) {
	id := ix.intern(p.name)
	for _, tok := range p.tokens {
		if _, known := ix.postings[tok]; !known {
			ix.dirty = true
		}
		ix.postings[tok] = insertSorted(ix.postings[tok], id)
	}
	ix.addPathsLocked(id, p.contrib)
}

// remove drops one document (see dropLocked).
func (ix *docIndex) remove(name string, old *docPrep) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.dropLocked(name, old)
}

// dropLocked frees name's docID after undoing exactly what old — prepDoc
// of the version the index holds — contributed. With old nil, because
// the stored record could not be read, the contribution is recovered by
// sweeping every list for the docID first, so a corrupt document can
// still be deleted or replaced.
func (ix *docIndex) dropLocked(name string, old *docPrep) {
	id, ok := ix.ids[name]
	if !ok {
		return
	}
	if old == nil {
		old = ix.sweepLocked(id)
	}
	for _, tok := range old.tokens {
		if list := removeSorted(ix.postings[tok], id); len(list) > 0 {
			ix.postings[tok] = list
		} else {
			delete(ix.postings, tok)
			ix.dirty = true
		}
	}
	ix.removePathsLocked(id, old.contrib)
	delete(ix.ids, name)
	ix.names[id] = ""
	ix.free = append(ix.free, id)
}

// sweepLocked recovers what id contributed by searching every list of the
// index for it: the error path of dropLocked, O(index) where undoing a
// decoded record is O(document).
func (ix *docIndex) sweepLocked(id docID) *docPrep {
	has := func(list []docID) bool {
		_, found := slices.BinarySearch(list, id)
		return found
	}
	p := &docPrep{contrib: newDocContrib()}
	for tok, list := range ix.postings {
		if has(list) {
			p.tokens = append(p.tokens, tok)
		}
	}
	for key, pp := range ix.paths {
		if i, found := slices.BinarySearch(pp.ids, id); found {
			p.contrib.counts[key] = pp.counts[i]
		}
	}
	for key, vl := range ix.values {
		for _, e := range vl.entries {
			if has(e.ids) {
				p.contrib.values[key] = append(p.contrib.values[key], e.raw)
			}
		}
		if has(vl.overflow) {
			p.contrib.overflow[key] = true
		}
	}
	return p
}

// vocabulary returns the sorted token list. Callers hold ix.mu, but the
// returned slice is immutable once built (a later mutation builds a NEW
// slice), so callers may release the lock and keep scanning it.
func (ix *docIndex) vocabulary() []string {
	if ix.dirty || ix.vocab == nil {
		ix.vocab = make([]string, 0, len(ix.postings))
		for tok := range ix.postings {
			ix.vocab = append(ix.vocab, tok)
		}
		sort.Strings(ix.vocab)
		ix.dirty = false
	}
	return ix.vocab
}

// candidates evaluates the hint's conjunction against the indexes. It
// returns the sorted IDs of the documents that may satisfy it, whether any
// constraint was applied at all (constrained false means no pruning: every
// document is a candidate, not none), the number of documents
// eliminated by value comparisons specifically (beyond the
// token/path-existence pruning), and whether the list is exact:
// the documents satisfying every Path constraint, no more. A Path the
// path summary and value index resolve exactly unless a compared path
// holds an over-cap value (its overflow documents are kept as candidates
// whatever their value); the other constraints of a conjunct are implied
// by its Path. The returned slice belongs to the caller.
//
// Conjunctions intersect the smallest list first, galloping into much
// longer ones; the unions a constraint needs (a substring's matching
// tokens, the path keys a pattern matches, the value entries a comparison
// selects) are merged from sorted postings. The cost follows the
// candidates and the lists touched, not the collection.
func (ix *docIndex) candidates(hint *xquery.Hint) (ids []docID, constrained bool, rangePruned int, exact bool) {
	// Substring constraints scan the whole vocabulary; do that outside the
	// lock against the immutable vocab slice so a long scan never blocks
	// writers. Only the token → posting lookups below need the lock.
	var subMatches map[string][]string // substring → matching tokens
	for _, c := range hint.Constraints {
		if c.Substring == "" {
			continue
		}
		if subMatches == nil {
			subMatches = map[string][]string{}
		}
		subMatches[c.Substring] = nil
	}
	if subMatches != nil {
		ix.mu.Lock()
		vocab := ix.vocabulary()
		ix.mu.Unlock()
		for sub := range subMatches {
			var toks []string
			for _, tok := range vocab {
				if strings.Contains(tok, sub) {
					toks = append(toks, tok)
				}
			}
			subMatches[sub] = toks
		}
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	// The lists gathered here alias index state, so a lone one that ends up
	// as the result is copied before the lock is released (owned false).
	var lists [][]docID
	for _, c := range hint.Constraints {
		for _, tok := range c.Tokens {
			lists = append(lists, ix.postings[tok])
		}
		if c.Substring != "" {
			var union [][]docID
			for _, tok := range subMatches[c.Substring] {
				union = append(union, ix.postings[tok])
			}
			lists = append(lists, unionSorted(union))
		}
		if c.Path != nil && c.Path.Op == xquery.CmpExists {
			lists = append(lists, unionSorted(ix.pathExistsLocked(c.Path.Steps)))
		}
	}
	constrained = len(lists) > 0
	result := intersectAll(lists)
	owned := len(lists) > 1
	overflow := false
	for _, c := range hint.Constraints {
		if c.Path == nil || c.Path.Op == xquery.CmpExists {
			continue
		}
		if constrained && len(result) == 0 {
			break // nothing left to eliminate
		}
		lists, over := ix.valueMatchesLocked(c.Path)
		overflow = overflow || over
		matches := unionSorted(lists)
		if constrained {
			base := len(result)
			result = intersectSorted(result, matches)
			owned = true
			rangePruned += base - len(result)
		} else {
			result = matches
			rangePruned += len(ix.ids) - len(result)
			constrained = true
		}
	}
	exact = !overflow || len(result) == 0
	if !constrained {
		return nil, false, rangePruned, exact
	}
	if !owned {
		result = slices.Clone(result)
	}
	return result, true, rangePruned, exact
}

// docNames resolves candidate IDs to document names.
func (ix *docIndex) docNames(ids []docID) []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = ix.names[id]
	}
	return names
}

// intersectAll intersects sorted lists smallest first, so every step's
// output is bounded by the smallest list. A lone list is returned as is.
func intersectAll(lists [][]docID) []docID {
	if len(lists) == 0 {
		return nil
	}
	slices.SortFunc(lists, func(a, b []docID) int { return len(a) - len(b) })
	result := lists[0]
	for _, list := range lists[1:] {
		if len(result) == 0 {
			break
		}
		result = intersectSorted(result, list)
	}
	return result
}

// gallopRatio is the length ratio past which intersectSorted stops merging
// and binary-searches the longer list instead.
const gallopRatio = 8

// intersectSorted returns the intersection of two sorted lists in a fresh
// slice. Lists of similar length are merged; when one is much longer, each
// ID of the shorter is found in it by galloping, in O(short · log long).
func intersectSorted(a, b []docID) []docID {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]docID, 0, len(a))
	if len(b) > gallopRatio*len(a) {
		j := 0
		for _, id := range a {
			if j = gallop(b, j, id); j == len(b) {
				break
			}
			if b[j] == id {
				out = append(out, id)
				j++
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// gallop returns the first index at or after lo whose ID is >= id: it
// probes lo, lo+1, lo+3, lo+7, … until it passes id, then binary-searches
// the last gap.
func gallop(list []docID, lo int, id docID) int {
	hi, step := lo, 1
	for hi < len(list) && list[hi] < id {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(list))
	i, _ := slices.BinarySearch(list[lo:hi], id)
	return lo + i
}

// unionSorted returns the sorted, duplicate-free union of sorted lists,
// consuming the lists slice itself (not the lists it holds). A lone
// non-empty list is returned as is, without a copy; several are merged
// through a min-heap of their heads in O(total · log lists).
func unionSorted(lists [][]docID) []docID {
	heap := lists[:0]
	total := 0
	for _, list := range lists {
		if len(list) > 0 {
			heap = append(heap, list)
			total += len(list)
		}
	}
	switch len(heap) {
	case 0:
		return nil
	case 1:
		return heap[0]
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	out := make([]docID, 0, total)
	for len(heap) > 0 {
		if id := heap[0][0]; len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
		if heap[0] = heap[0][1:]; len(heap[0]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return out
}

// siftDown restores the min-heap order (by head ID) below node i.
func siftDown(heap [][]docID, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(heap) && heap[l][0] < heap[m][0] {
			m = l
		}
		if r := 2*i + 2; r < len(heap) && heap[r][0] < heap[m][0] {
			m = r
		}
		if m == i {
			return
		}
		heap[i], heap[m] = heap[m], heap[i]
		i = m
	}
}
