package engine

import (
	"slices"

	"partix/internal/xquery"
)

// Planner-facing collection statistics. A coordinator asks each node for a
// CollectionStatistics snapshot and uses it to prove fragments empty for a
// query (skip them entirely), to estimate sub-query cardinalities, and to
// order reconstruction joins. Everything here is derived from structures
// the indexes maintain anyway — the store's doc/byte counters, the path
// summary, the typed value index and its membership filters — so producing
// a snapshot decodes nothing.
//
// Soundness contract: the statistics describe the collection exactly as of
// Generation. Complete=true additionally promises that Paths covers every
// label path of the collection, so a path pattern matching no key means no
// document has such a node. When indexes are disabled or the path count
// exceeds statsPathCap, Complete is false and a planner may use the
// snapshot only for estimates, never for exclusion.

// statsPathCap bounds the per-path table shipped to coordinators. Real
// DataGuides are tiny (tens of paths); a collection of wildly heterogeneous
// documents could blow the snapshot up, so past the cap the table is
// dropped and the snapshot degrades to doc/byte counts.
const statsPathCap = 4096

// PathStats summarizes one label path (key encoding as in the path
// summary: components joined with "/", attributes prefixed "@").
type PathStats struct {
	Docs       int64   // documents containing the path
	Nodes      int64   // total nodes at the path across all docs
	Distinct   int64   // distinct indexed string-values at the path
	NonNumeric int64   // distinct values that do not parse as numbers
	Overflow   int64   // docs whose value at the path exceeded valueCap (unindexed)
	HasNum     bool    // at least one indexed value parses as a number (and is not NaN)
	MinNum     float64 // numeric value range, valid only when HasNum
	MaxNum     float64
	MinStr     string // raw string-value range over all indexed values
	MaxStr     string // (valid when Distinct > 0)
	// Members is a Bloom filter over the indexed values, keyed as the
	// evaluator's = compares them (members.go; MayHold tests it). Only a
	// path with Overflow == 0 and Distinct > 0 carries one, and a snapshot
	// over its filter budget leaves out the largest first.
	Members []byte
}

// CollectionStatistics is one node's statistics snapshot for one
// collection. All fields are exported and gob-encodable so the snapshot
// travels over the wire Stats RPC unchanged.
type CollectionStatistics struct {
	Docs       int64
	Bytes      int64
	Generation uint64
	Complete   bool
	Paths      map[string]PathStats
}

// Generation returns the collection's mutation generation: it starts at
// zero and every PutDocument/LoadCollection/DeleteDocument/DropCollection
// bumps it. Coordinators key cached statistics and plans on it.
func (db *DB) Generation(collection string) uint64 {
	return db.colFor(collection).seq.Load() >> 1
}

// CollectionStatistics builds the planner statistics snapshot for a
// collection. The error mirrors CollectionStats (unknown collection);
// index unavailability is not an error — it degrades Complete instead.
func (db *DB) CollectionStatistics(collection string) (*CollectionStatistics, error) {
	st, err := db.store.CollectionStats(collection)
	if err != nil {
		return nil, err
	}
	// Generation is read before the index so a racing mutation can only
	// make the snapshot look older than it is; a coordinator comparing
	// generations then refetches, which is the safe direction.
	gen := db.Generation(collection)
	db.mu.RLock()
	ix := db.idx[collection]
	db.mu.RUnlock()

	cs := &CollectionStatistics{
		Docs:       int64(st.Documents),
		Bytes:      st.Bytes,
		Generation: gen,
	}
	if db.opts.DisableIndexes || ix == nil {
		return cs, nil
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.paths) > statsPathCap {
		return cs, nil
	}
	cs.Complete = true
	cs.Paths = make(map[string]PathStats, len(ix.paths))
	for key, p := range ix.paths {
		ps := PathStats{Docs: int64(len(p.ids))}
		for _, n := range p.counts {
			ps.Nodes += int64(n)
		}
		if vl := ix.values[key]; vl != nil {
			ps.Distinct = int64(len(vl.entries))
			ps.Overflow = int64(len(vl.overflow))
			if len(vl.entries) > 0 {
				ps.MinStr = vl.entries[0].raw
				ps.MaxStr = vl.entries[len(vl.entries)-1].raw
			}
			// One pass, not vl.numeric(): a snapshot follows every write a
			// coordinator hears of, and re-sorting the numeric order after
			// each new value would hold the index lock far longer.
			for i := range vl.entries {
				switch e := &vl.entries[i]; {
				case !e.isNum:
					ps.NonNumeric++
				case e.num != e.num: // NaN: in no range
				case !ps.HasNum:
					ps.HasNum, ps.MinNum, ps.MaxNum = true, e.num, e.num
				default:
					ps.MinNum, ps.MaxNum = min(ps.MinNum, e.num), max(ps.MaxNum, e.num)
				}
			}
			if ps.Overflow == 0 && ps.Distinct > 0 {
				// A copy: the index keeps setting bits after the lock is
				// released, and an in-process coordinator reads this one.
				ps.Members = slices.Clone(vl.members.built(vl.entries))
			}
		}
		cs.Paths[key] = ps
	}
	capMembers(cs.Paths)
	return cs, nil
}

// PathKeyMatches reports whether a stored label-path key (the Paths map
// key encoding) matches a query path pattern. Exported for planners that
// evaluate constraints against a CollectionStatistics snapshot.
func PathKeyMatches(steps []xquery.LabelStep, key string) bool {
	// Keys of real documents are a few components deep: parse them on the
	// stack, so a planner matching every key of a snapshot allocates nothing.
	var buf [16]pathComp
	return matchLabelPath(steps, appendPathComps(buf[:0], key))
}
