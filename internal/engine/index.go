package engine

import (
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
//     vocabulary for substring constraints) and a structural index
//     (element name → sorted posting list) — tokenization matches
//     xquery.Tokenize, which is what makes hints sound;
//   - a DataGuide-style path summary: every distinct root-to-node label
//     path → the docs containing it, with per-doc node counts (pathindex.go);
//   - a typed value index: label path → sorted node values → postings,
//     answering equality and range constraints by binary search.
//
// The reverse maps (docID → what the doc contributed) make remove
// proportional to the document's own vocabulary instead of the whole
// index's.
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
	elements map[string][]docID // element name → sorted docIDs

	docTokens   map[docID][]string // reverse: tokens a doc contributed
	docElements map[docID][]string // reverse: element names a doc contributed

	vocab []string // sorted tokens; rebuilt lazily, immutable once built
	dirty bool

	paths    map[string]*pathPosting // label path key → docs + node counts
	values   map[string]*valueList   // label path key → value index
	docPaths map[docID][]docPathRef  // reverse: paths/values a doc contributed

	// pathsBuilt is false only for indexes restored from a pre-v3
	// snapshot: the path structures are then rebuilt lazily on first use
	// (engine.ensurePathIndex). Mutations arriving before that land in
	// pathPending (nil marks a removal) and are replayed by the rebuild.
	pathsBuilt  bool
	pathPending map[string]*docContrib

	// rebuildMu serializes the lazy path rebuild; it is never taken while
	// holding ix.mu.
	rebuildMu sync.Mutex
}

func newDocIndex() *docIndex {
	return &docIndex{
		ids:         map[string]docID{},
		postings:    map[string][]docID{},
		elements:    map[string][]docID{},
		docTokens:   map[docID][]string{},
		docElements: map[docID][]string{},
		paths:       map[string]*pathPosting{},
		values:      map[string]*valueList{},
		docPaths:    map[docID][]docPathRef{},
		pathsBuilt:  true, // a fresh index is trivially in sync
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
	name     string
	tokens   []string
	elements []string
	contrib  *docContrib
}

// prepDoc clones every token and element name it keeps: the index outlives
// the document, and a decoded document's strings alias one per-document
// string (Tokenize returns already-lower-case tokens unchanged), so an
// uncloned token would pin all of its document's text. The membership test
// comes first because assigning an existing string key replaces the key.
func prepDoc(doc *xmltree.Document) docPrep {
	tokens := map[string]bool{}
	elements := map[string]bool{}
	doc.Root.Walk(func(n *xmltree.Node) bool {
		switch n.Kind {
		case xmltree.TextNode:
			for _, tok := range xquery.Tokenize(n.Value) {
				if !tokens[tok] {
					tokens[strings.Clone(tok)] = true
				}
			}
		case xmltree.ElementNode:
			if !elements[n.Name] {
				elements[strings.Clone(n.Name)] = true
			}
		}
		return true
	})
	p := docPrep{name: doc.Name, contrib: collectDocPaths(doc)}
	for tok := range tokens {
		p.tokens = append(p.tokens, tok)
	}
	for name := range elements {
		p.elements = append(p.elements, name)
	}
	return p
}

func (ix *docIndex) add(doc *xmltree.Document) {
	p := prepDoc(doc)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addPrepLocked(p)
}

// replace removes any previous version of doc and adds the new one under
// a single lock acquisition.
func (ix *docIndex) replace(doc *xmltree.Document) {
	ix.replacePrep(prepDoc(doc))
}

// replacePrep is replace with the document's contribution precomputed by
// the caller (outside every lock): the critical section is pure map and
// posting-list maintenance.
func (ix *docIndex) replacePrep(p docPrep) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(p.name)
	ix.addPrepLocked(p)
}

func (ix *docIndex) addPrepLocked(p docPrep) {
	id := ix.intern(p.name)
	for _, tok := range p.tokens {
		if _, known := ix.postings[tok]; !known {
			ix.dirty = true
		}
		ix.postings[tok] = insertSorted(ix.postings[tok], id)
		ix.docTokens[id] = append(ix.docTokens[id], tok)
	}
	for _, name := range p.elements {
		ix.elements[name] = insertSorted(ix.elements[name], id)
		ix.docElements[id] = append(ix.docElements[id], name)
	}
	if ix.pathsBuilt {
		ix.addPathsLocked(id, p.contrib)
	} else {
		ix.pendPathLocked(p.name, p.contrib)
	}
}

func (ix *docIndex) remove(docName string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(docName)
}

func (ix *docIndex) removeLocked(docName string) {
	if !ix.pathsBuilt {
		ix.pendPathLocked(docName, nil)
	}
	id, ok := ix.ids[docName]
	if !ok {
		return
	}
	for _, tok := range ix.docTokens[id] {
		if list := removeSorted(ix.postings[tok], id); len(list) == 0 {
			delete(ix.postings, tok)
			ix.dirty = true
		} else {
			ix.postings[tok] = list
		}
	}
	for _, name := range ix.docElements[id] {
		if list := removeSorted(ix.elements[name], id); len(list) == 0 {
			delete(ix.elements, name)
		} else {
			ix.elements[name] = list
		}
	}
	if ix.pathsBuilt {
		ix.removePathsLocked(id)
	}
	delete(ix.docTokens, id)
	delete(ix.docElements, id)
	delete(ix.ids, docName)
	ix.names[id] = ""
	ix.free = append(ix.free, id)
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

// intersectSorted merges two sorted posting lists into their intersection.
func intersectSorted(a, b []docID) []docID {
	out := a[:0:0]
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

// candidates evaluates the hint's conjunction and returns the documents
// that may satisfy it, plus the number of documents eliminated by value
// comparisons specifically (beyond the token/element/path-existence
// pruning). usePaths gates the path-qualified constraints — false when
// the path structures are unavailable (disabled, or a lazy rebuild
// failed), in which case those constraints are simply not applied, which
// is always sound.
func (ix *docIndex) candidates(hint *xquery.Hint, usePaths bool) (map[string]bool, int) {
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
	var result []docID
	first := true
	intersect := func(list []docID) {
		if first {
			result = append(result[:0:0], list...)
			first = false
			return
		}
		result = intersectSorted(result, list)
	}
	union := func(set map[docID]bool) {
		list := make([]docID, 0, len(set))
		for id := range set {
			list = append(list, id)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		intersect(list)
	}
	for _, c := range hint.Constraints {
		for _, tok := range c.Tokens {
			intersect(ix.postings[tok])
		}
		for _, name := range c.Elements {
			intersect(ix.elements[name])
		}
		if c.Substring != "" {
			set := map[docID]bool{}
			for _, tok := range subMatches[c.Substring] {
				for _, id := range ix.postings[tok] {
					set[id] = true
				}
			}
			union(set)
		}
		if usePaths && c.Path != nil && c.Path.Op == xquery.CmpExists {
			union(ix.pathExistsLocked(c.Path.Steps))
		}
	}
	rangePruned := 0
	if usePaths {
		for _, c := range hint.Constraints {
			if c.Path == nil || c.Path.Op == xquery.CmpExists {
				continue
			}
			base := len(result)
			if first {
				base = len(ix.ids)
			}
			union(ix.valueMatchesLocked(c.Path))
			rangePruned += base - len(result)
		}
	}
	out := make(map[string]bool, len(result))
	for _, id := range result {
		out[ix.names[id]] = true
	}
	return out, rangePruned
}
