package partix

import (
	"sync"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/obs"
)

// The statistics cache holds each node's per-collection planner
// statistics (engine.CollectionStatistics) keyed by (node, node
// collection). Entries expire after a TTL — the coordinator's freshness
// bound on remote data it does not observe mutating — and a fetched
// snapshot carries the generation it describes, which is what plan-cache
// entries are validated against. Fetch failures and nodes that cannot
// provide statistics are cached as nil for the same TTL (negative
// caching), so an old or unreachable node costs one probe per TTL window
// instead of one per query.

// defaultStatsTTL bounds how stale a fragment-statistics snapshot (and
// therefore any plan built from it) may be.
const defaultStatsTTL = 30 * time.Second

type statsEntry struct {
	stats   *engine.CollectionStatistics // nil: node provided none
	fetched time.Time
}

type statsCache struct {
	mu      sync.Mutex
	ttl     time.Duration
	entries map[string]statsEntry
}

func newStatsCache(ttl time.Duration) *statsCache {
	return &statsCache{ttl: ttl, entries: map[string]statsEntry{}}
}

func statsKey(node, collection string) string {
	// "\x00" cannot occur in node or collection names.
	return node + "\x00" + collection
}

// get returns the cached snapshot and whether it is still fresh. A
// non-positive TTL makes every entry stale, forcing a refetch per query —
// the immediate-invalidation mode tests use.
func (sc *statsCache) get(node, collection string) (*engine.CollectionStatistics, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	e, ok := sc.entries[statsKey(node, collection)]
	if !ok || sc.ttl <= 0 || time.Since(e.fetched) > sc.ttl {
		return nil, false
	}
	return e.stats, true
}

func (sc *statsCache) put(node, collection string, stats *engine.CollectionStatistics) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.entries[statsKey(node, collection)] = statsEntry{stats: stats, fetched: time.Now()}
}

func (sc *statsCache) clear() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.entries = map[string]statsEntry{}
}

func (sc *statsCache) setTTL(d time.Duration) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.ttl = d
}

// nodeStatistics resolves one node's statistics for a node-collection
// through the cache. Unknown nodes, drivers without the
// StatisticsProvider extension, nodes without indexes and fetch errors
// all yield nil — the planner treats all of them as "no statistics" and
// keeps the fragment.
func (s *System) nodeStatistics(nodeName, collection string) *engine.CollectionStatistics {
	if st, ok := s.statsCache.get(nodeName, collection); ok {
		return st
	}
	var stats *engine.CollectionStatistics
	if node := s.Node(nodeName); node != nil {
		if sp, ok := node.(cluster.StatisticsProvider); ok {
			obs.CoordStatsFetches.Inc()
			stats, _ = sp.CollectionStatistics(collection)
		}
	}
	s.statsCache.put(nodeName, collection, stats)
	return stats
}

// fragmentStatistics is nodeStatistics addressed by catalog metadata.
func (s *System) fragmentStatistics(meta *CollectionMeta, fragment string) *engine.CollectionStatistics {
	return s.nodeStatistics(meta.Placement[fragment], meta.NodeCollection(fragment))
}
