package partix

import (
	"partix/internal/engine"
	"partix/internal/lru"
	"partix/internal/obs"
	"partix/internal/xquery"
)

// The plan cache memoizes compiled plans by normalized query text so
// repeat traffic skips parsing, analysis and planning entirely. A cached
// plan is only as good as the metadata it was built from, so each entry
// is stamped with the catalog version and, for every fragment whose
// statistics the planner consulted, the (node, collection, generation)
// snapshot it saw. On lookup stampsCurrent revalidates the entry; any
// drift discards it (counted as an invalidation) and the query is
// planned afresh. Plans that consulted no statistics carry no stamps and
// depend only on the catalog version — planning is then a pure function
// of the query and the catalog.

// planCacheCap bounds the cache; at ~a few KB per compiled plan this
// keeps a busy coordinator's cache well under a MB.
const planCacheCap = 128

// planEntry is one cached compiled plan. Entries and the plans inside
// them are shared and read-only after insertion.
type planEntry struct {
	stampSet
	expr xquery.Expr
	plan *queryPlan
}

func newPlanCache() *lru.Cache[string, *planEntry] {
	return lru.New[string, *planEntry](planCacheCap, obs.CoordPlanCacheEvictions)
}

// genStamp records the statistics snapshot an entry saw for one fragment.
type genStamp struct {
	node       string // node name
	collection string // node-collection name (meta.NodeCollection)
	epoch      uint64 // the node's watch epoch; 0 when the node keeps no statistics
	gen        uint64 // snapshot generation; 0 when none was available
	has        bool   // whether a snapshot was available at all
}

// of returns the stamp completed by the snapshot st (nil: none).
func (gs genStamp) of(st *engine.CollectionStatistics) genStamp {
	if st != nil {
		gs.gen, gs.has = st.Generation, true
	}
	return gs
}

// stampSet is the metadata a cached plan depends on: the catalog version
// and one generation stamp per fragment whose statistics went into it.
type stampSet struct {
	catalogVersion uint64
	stamps         []genStamp
}

// stampsCurrent reports whether a stamped entry is still current: the
// catalog must not have moved, and every stamped fragment must still
// show the snapshot the entry saw — present or absent alike — with no
// generation reported past it by the node's watch (statsCache.current).
// The check makes no round trip: a node-side write outdates the entry as
// soon as the node's report of it arrives.
func (s *System) stampsCurrent(ss stampSet) bool {
	return ss.catalogVersion == s.catalog.Version() && s.statsCache.current(ss.stamps)
}
