package partix

import (
	"sync"

	"partix/internal/cluster"
	"partix/internal/obs"
	"partix/internal/xquery"
)

// The result cache serves a repeated query's fully merged result with
// zero node round-trips and zero plan work. Like the plan cache it is
// keyed by normalized query text; unlike the plan cache its budget is
// in bytes — an entry's cost is the serialized size of its items, so the
// budget bounds coordinator memory, not entry count. Each entry is
// stamped with its plan's stamps (every fragment whose statistics the
// planner consulted, the skipped ones included) plus one stamp per
// fragment the execution contacted, captured before the sub-queries ran;
// on lookup stampsCurrent revalidates them. Any drift discards the entry
// — a node-side mutation is visible within the statistics TTL,
// immediately with a zero TTL. Publish clears the cache eagerly.
//
// The cache is OFF by default (budget 0): repeating a query must
// re-execute it under the paper's measured methodology, and the
// benchmark harness repeats queries by design. Serving deployments
// enable it with System.SetResultCacheBytes.

// resultEntryFraction derives the per-entry size cap from the budget:
// one entry may use at most 1/16 of the budget, so a single huge result
// cannot monopolize the cache.
const resultEntryFraction = 16

// resultEntry is one cached merged query result. Entries are immutable
// after insertion: the items sequence is shared with every hit, which is
// safe because result items are never mutated by callers of Query.
type resultEntry struct {
	stampSet
	items     xquery.Seq
	strategy  Strategy
	fragments []string
	skipped   []string
	work      map[string]*xquery.WorkloadKeys // profiler keys, mined at plan time
}

// resultFlight is one in-progress upstream execution of a cache key.
// Followers block on done; the leader closes it after populating (or
// failing), and followers re-check the cache before executing themselves.
type resultFlight struct {
	done chan struct{}
}

// resultCache is a byte-budgeted LRU of merged query results (each entry
// costs resultEntryBytes) with singleflight coordination per key.
type resultCache struct {
	*lru[*resultEntry]
	flightMu sync.Mutex // guards flights
	flights  map[string]*resultFlight
}

func newResultCache() *resultCache {
	return &resultCache{
		lru:     newLRU[*resultEntry](0, obs.CoordResultCacheEvictions, obs.CoordResultCacheBytes),
		flights: map[string]*resultFlight{},
	}
}

// enabled reports whether the cache accepts entries.
func (rc *resultCache) enabled() bool { return rc.budget() > 0 }

// beginFlight joins the singleflight for key: the first caller becomes
// the leader (and must call endFlight when its execution — successful or
// not — is over); later callers get the leader's flight to wait on.
func (rc *resultCache) beginFlight(key string) (*resultFlight, bool) {
	rc.flightMu.Lock()
	defer rc.flightMu.Unlock()
	if fl := rc.flights[key]; fl != nil {
		return fl, false
	}
	fl := &resultFlight{done: make(chan struct{})}
	rc.flights[key] = fl
	return fl, true
}

// endFlight releases the leadership for key and wakes every follower.
func (rc *resultCache) endFlight(key string) {
	rc.flightMu.Lock()
	fl := rc.flights[key]
	delete(rc.flights, key)
	rc.flightMu.Unlock()
	if fl != nil {
		close(fl.done)
	}
}

// resultEntryBytes is the accounted cost of caching a result: the
// serialized size of its items (the transmission model's payload size)
// plus the key and a fixed per-entry overhead for the bookkeeping.
func resultEntryBytes(key string, items xquery.Seq) int64 {
	const entryOverhead = 256
	return int64(cluster.SeqBytes(items)) + int64(len(key)) + entryOverhead
}
