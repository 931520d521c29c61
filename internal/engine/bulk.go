package engine

import (
	"sort"

	"partix/internal/xmltree"
)

// bulkAdd indexes a batch of documents under one lock acquisition,
// aggregating postings per key and sorting each touched list once.
// Per-document insertSorted is O(list) per insertion — O(n²) over a load
// whose interned IDs arrive out of order (recycled slots pop LIFO, so a
// delete-all-then-reload feeds descending IDs and every insert shifts the
// whole list). The batch path is O((n+k)·log) per touched list instead.
// Duplicate names within the batch keep the last version, matching the
// sequential put-by-put outcome. A name the index already holds is
// replaced: old maps it to what its held version contributed (dropLocked;
// a name old lacks is swept).
func (ix *docIndex) bulkAdd(docs []*xmltree.Document, old map[string]*docPrep) {
	if len(docs) == 0 {
		return
	}
	preps := make([]docPrep, 0, len(docs))
	byName := make(map[string]int, len(docs))
	for _, d := range docs {
		p := prepDoc(d)
		if i, dup := byName[p.name]; dup {
			preps[i] = p
			continue
		}
		byName[p.name] = len(preps)
		preps = append(preps, p)
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, p := range preps {
		ix.dropLocked(p.name, old[p.name])
	}
	aggTok := map[string][]docID{}
	aggPathIDs := map[string][]docID{}
	aggPathCounts := map[string][]uint32{}
	aggVals := map[string]map[string][]docID{}
	aggOver := map[string][]docID{}
	for _, p := range preps {
		id := ix.intern(p.name)
		for _, tok := range p.tokens {
			aggTok[tok] = append(aggTok[tok], id)
		}
		for key, count := range p.contrib.counts {
			aggPathIDs[key] = append(aggPathIDs[key], id)
			aggPathCounts[key] = append(aggPathCounts[key], count)
			for _, raw := range p.contrib.values[key] {
				vals := aggVals[key]
				if vals == nil {
					vals = map[string][]docID{}
					aggVals[key] = vals
				}
				vals[raw] = append(vals[raw], id)
			}
			if p.contrib.overflow[key] {
				aggOver[key] = append(aggOver[key], id)
			}
		}
	}
	for tok, ids := range aggTok {
		if _, known := ix.postings[tok]; !known {
			ix.dirty = true
		}
		ix.postings[tok] = mergeSortedIDs(ix.postings[tok], ids)
	}
	for key, ids := range aggPathIDs {
		p := ix.pathOrCreate(key)
		p.ids = append(p.ids, ids...)
		p.counts = append(p.counts, aggPathCounts[key]...)
		p.sortByID()
	}
	for key, vals := range aggVals {
		ix.valuesOrCreate(key).bulkMerge(vals)
	}
	for key, ids := range aggOver {
		vl := ix.valuesOrCreate(key)
		vl.overflow = mergeSortedIDs(vl.overflow, ids)
	}
}

// bulkMerge folds a batch of value → doc-ID contributions into the list:
// existing entries get their postings merged in place, new values are
// appended and the entries sorted once — not once per value, which would
// re-shift the slice O(batch²) times on a load of mostly-distinct values.
func (vl *valueList) bulkMerge(vals map[string][]docID) {
	// New entries are collected aside and appended after the loop: find()
	// binary-searches entries, which must stay sorted while lookups run.
	var fresh []valueEntry
	for raw, ids := range vals {
		if i, ok := vl.find(raw); ok {
			vl.entries[i].ids = mergeSortedIDs(vl.entries[i].ids, ids)
			continue
		}
		e := newValueEntry(raw)
		e.ids = mergeSortedIDs(nil, ids)
		fresh = append(fresh, e)
	}
	if len(fresh) > 0 {
		vl.entries = append(vl.entries, fresh...)
		sort.Slice(vl.entries, func(i, j int) bool { return vl.entries[i].raw < vl.entries[j].raw })
		vl.numDirty = true
		vl.members.bits = nil // built whole by the next statistics snapshot
	}
}

// mergeSortedIDs merges new IDs (unsorted, duplicate-free, disjoint from
// list) into a sorted posting list.
func mergeSortedIDs(list, add []docID) []docID {
	sort.Slice(add, func(i, j int) bool { return add[i] < add[j] })
	if len(list) == 0 {
		return append([]docID(nil), add...)
	}
	out := make([]docID, 0, len(list)+len(add))
	i, j := 0, 0
	for i < len(list) && j < len(add) {
		if list[i] < add[j] {
			out = append(out, list[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, list[i:]...)
	out = append(out, add[j:]...)
	return out
}
