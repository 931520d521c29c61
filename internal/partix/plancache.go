package partix

import (
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

// defaultPlanCacheCap bounds the cache (each plan costs 1); at ~a few KB
// per compiled plan this keeps a busy coordinator's cache well under a MB.
const defaultPlanCacheCap = 128

// planEntry is one cached compiled plan. Entries and the plans inside
// them are shared and read-only after insertion.
type planEntry struct {
	stampSet
	expr xquery.Expr
	plan *queryPlan
}

func newPlanCache() *lru[*planEntry] {
	return newLRU[*planEntry](defaultPlanCacheCap, obs.CoordPlanCacheEvictions, nil)
}
