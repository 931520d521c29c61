package engine

import (
	"bytes"
	"encoding/gob"
	"slices"
	"sort"
)

// Index snapshots: the in-memory indexes are serialized into a metadata
// record of the store on Sync/Close. Because the store's catalog is
// persisted at the same moments, a snapshot read back at Open always
// describes exactly the cataloged documents — a crash between syncs loses
// the un-synced documents and their index entries together.
//
// Only the v4 record loads: the interned doc-name table, the token
// posting lists, the path summary and the value index. Anything else — no
// v4 record, one that fails to decode or to validate, one whose path half
// is missing, or one not covering every cataloged collection — triggers
// the rebuild scan, so loading never errors. Older engines wrote v1
// (doc-name lists), v2 (docID lists without paths) and v3 (v4 plus
// element-name postings) records under their own keys; nothing reads
// those keys, and every save deletes them so upgraded stores drop the dead
// records. The v3 key is not reused: an older engine, which answers
// element constraints from element postings, would load a record written
// under it with none and find no document for any of them.

const (
	indexMetaKeyV1 = "engine:index:v1"
	indexMetaKeyV2 = "engine:index:v2"
	indexMetaKeyV3 = "engine:index:v3"
	indexMetaKeyV4 = "engine:index:v4"
)

// indexSnapshotV4 is the serialized form of one collection's indexes: the
// doc-name table ("" marks a recycled docID slot), token posting lists of
// table offsets, the path summary (per label path: sorted doc list +
// parallel node counts) and the value index (per label path: values with
// their doc lists, plus over-cap overflow docs).
type indexSnapshotV4 struct {
	Docs     []string
	Postings map[string][]uint32

	// PathsBuilt is true in every record this engine writes. The field
	// must stay decoded and a record without it rejected: otherwise a
	// record missing its path half would load with empty path maps that
	// prune every path query.
	PathsBuilt bool
	PathDocs   map[string][]uint32
	PathCounts map[string][]uint32
	Values     map[string][]valueSnapV4
	Overflow   map[string][]uint32
}

// valueSnapV4 is one distinct value at a path with its doc list.
type valueSnapV4 struct {
	Value string
	Docs  []uint32
}

func (db *DB) saveIndexSnapshot() error {
	db.mu.RLock()
	indexes := make(map[string]*docIndex, len(db.idx))
	for col, ix := range db.idx {
		indexes[col] = ix
	}
	db.mu.RUnlock()

	snap := make(map[string]indexSnapshotV4, len(indexes))
	for col, ix := range indexes {
		snap[col] = ix.snapshot()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return err
	}
	if err := db.store.PutMeta(indexMetaKeyV4, buf.Bytes()); err != nil {
		return err
	}
	// Drop the dead older records an upgraded store may still carry.
	for _, key := range []string{indexMetaKeyV3, indexMetaKeyV2, indexMetaKeyV1} {
		if err := db.store.PutMeta(key, nil); err != nil {
			return err
		}
	}
	return nil
}

// snapshot captures one index's serializable state under its lock.
func (ix *docIndex) snapshot() indexSnapshotV4 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	s := indexSnapshotV4{
		Docs:       append([]string(nil), ix.names...),
		Postings:   make(map[string][]uint32, len(ix.postings)),
		PathsBuilt: true,
		PathDocs:   make(map[string][]uint32, len(ix.paths)),
		PathCounts: make(map[string][]uint32, len(ix.paths)),
		Values:     make(map[string][]valueSnapV4, len(ix.values)),
		Overflow:   map[string][]uint32{},
	}
	for tok, list := range ix.postings {
		s.Postings[tok] = idsToUint32(list)
	}
	for key, p := range ix.paths {
		s.PathDocs[key] = idsToUint32(p.ids)
		s.PathCounts[key] = append([]uint32(nil), p.counts...)
	}
	for key, vl := range ix.values {
		vs := make([]valueSnapV4, 0, len(vl.entries))
		for _, e := range vl.entries {
			vs = append(vs, valueSnapV4{Value: e.raw, Docs: idsToUint32(e.ids)})
		}
		if len(vs) > 0 {
			s.Values[key] = vs
		}
		if len(vl.overflow) > 0 {
			s.Overflow[key] = idsToUint32(vl.overflow)
		}
	}
	return s
}

// loadIndexSnapshot restores the indexes from the persisted v4 record; it
// reports false (leaving db.idx empty) when there is none or it cannot be
// used, in which case the caller rebuilds by scanning.
func (db *DB) loadIndexSnapshot() bool {
	data, ok, err := db.store.GetMeta(indexMetaKeyV4)
	if err != nil || !ok {
		return false
	}
	snap, err := decodeIndexSnapshot(data)
	if err != nil {
		return false
	}
	// Every cataloged collection must be covered, or the snapshot is stale
	// (e.g. a collection created without a later Sync).
	for _, col := range db.store.Collections() {
		if _, covered := snap[col]; !covered {
			return false
		}
	}
	loaded := make(map[string]*docIndex, len(snap))
	for col, s := range snap {
		if !db.store.HasCollection(col) {
			continue // dropped after the snapshot was taken
		}
		ix, ok := indexFromSnapshot(s)
		if !ok {
			return false // corrupt references or no paths: rebuild everything
		}
		loaded[col] = ix
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for col, ix := range loaded {
		db.idx[col] = ix
	}
	return true
}

// decodeIndexSnapshot decodes the v4 record's bytes: one snapshot per
// collection.
func decodeIndexSnapshot(data []byte) (map[string]indexSnapshotV4, error) {
	var snap map[string]indexSnapshotV4
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap)
	return snap, err
}

// indexFromSnapshot rebuilds one collection's index from its record,
// rejecting a record without paths, any reference to a doc the name table
// does not hold, and any value or overflow entry for a doc its path lacks.
func indexFromSnapshot(s indexSnapshotV4) (*docIndex, bool) {
	if !s.PathsBuilt {
		return nil, false
	}
	ix := newDocIndex()
	ix.names = append([]string(nil), s.Docs...)
	for id, name := range ix.names {
		if name == "" {
			ix.free = append(ix.free, docID(id))
			continue
		}
		ix.ids[name] = docID(id)
	}
	checkIDs := func(list []uint32) ([]docID, bool) {
		ids := make([]docID, len(list))
		for i, raw := range list {
			if int(raw) >= len(ix.names) || ix.names[raw] == "" {
				return nil, false
			}
			ids[i] = docID(raw)
		}
		return ids, true
	}
	for tok, list := range s.Postings {
		ids, ok := checkIDs(list)
		if !ok {
			return nil, false
		}
		ix.postings[tok] = ids
	}
	for key, docs := range s.PathDocs {
		counts := s.PathCounts[key]
		if len(counts) != len(docs) {
			return nil, false
		}
		ids, ok := checkIDs(docs)
		if !ok {
			return nil, false
		}
		p := &pathPosting{comps: parsePathKey(key), ids: ids, counts: append([]uint32(nil), counts...)}
		p.sortByID() // defensive: stored sorted, but sortedness is an invariant
		ix.paths[key] = p
	}
	// onPath checks a value or overflow list against the path summary: a
	// list at a path the summary does not know, or naming a doc the path
	// lacks, is corrupt.
	onPath := func(key string, list []uint32) ([]docID, bool) {
		p := ix.paths[key]
		ids, ok := checkIDs(list)
		if p == nil || !ok {
			return nil, false
		}
		slices.Sort(ids)
		for _, id := range ids {
			if _, found := slices.BinarySearch(p.ids, id); !found {
				return nil, false
			}
		}
		return ids, true
	}
	for key, vs := range s.Values {
		if ix.paths[key] == nil {
			return nil, false
		}
		vl := &valueList{entries: make([]valueEntry, 0, len(vs))}
		for _, v := range vs {
			ids, ok := onPath(key, v.Docs)
			if !ok {
				return nil, false
			}
			e := newValueEntry(v.Value)
			e.ids = ids
			vl.entries = append(vl.entries, e)
		}
		sort.Slice(vl.entries, func(i, j int) bool { return vl.entries[i].raw < vl.entries[j].raw })
		vl.numDirty = true
		ix.values[key] = vl
	}
	for key, docs := range s.Overflow {
		ids, ok := onPath(key, docs)
		if !ok {
			return nil, false
		}
		ix.valuesOrCreate(key).overflow = ids
	}
	return ix, true
}

func idsToUint32(in []docID) []uint32 {
	out := make([]uint32, len(in))
	for i, id := range in {
		out[i] = uint32(id)
	}
	return out
}
