package engine

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/obs"
)

// Per-collection heat counters feed the workload profiler's fragment
// heat maps. A fragmented deployment stores each fragment as its own
// node collection named "<collection>::<fragment>", so per-collection
// counters on a node are per-fragment counters for the cluster.
//
// Updates are atomic adds on a per-collection struct resolved through a
// double-checked map (the colFor pattern), gated on obs.Enabled() like
// every other instrumentation site.
type colHeat struct {
	queries     atomic.Int64
	docsDecoded atomic.Int64
	bytes       atomic.Int64
	latencyMu   sync.Mutex
	latency     []int64 // counts per obs.HeatLatencyBounds bucket, +Inf last
}

// heatState holds a DB's heat map behind its own small lock so heat
// lookups never contend with the engine's index/collection lock.
type heatState struct {
	mu   sync.RWMutex
	cols map[string]*colHeat
}

func (h *heatState) forCollection(collection string) *colHeat {
	h.mu.RLock()
	c := h.cols[collection]
	h.mu.RUnlock()
	if c != nil {
		return c
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if c = h.cols[collection]; c == nil {
		c = &colHeat{latency: make([]int64, len(obs.HeatLatencyBounds)+1)}
		h.cols[collection] = c
	}
	return c
}

// observeQueryHeat bumps the query and latency counters of every
// collection a query touches.
func (db *DB) observeQueryHeat(collections []string, elapsed time.Duration) {
	if !obs.Enabled() {
		return
	}
	bucket := obs.ObserveLatencyBucket(elapsed)
	for _, name := range collections {
		c := db.heat.forCollection(name)
		c.queries.Add(1)
		c.latencyMu.Lock()
		c.latency[bucket]++
		c.latencyMu.Unlock()
	}
}

// observeDocsHeat bumps a collection's decode counters after a Docs scan.
func (db *DB) observeDocsHeat(collection string, decoded, bytes int64) {
	if !obs.Enabled() {
		return
	}
	c := db.heat.forCollection(collection)
	c.docsDecoded.Add(decoded)
	c.bytes.Add(bytes)
}

// FragmentHeat exports the per-collection heat as fragment heat
// entries: node-collection names split on the "::" fragment separator,
// sorted by collection then fragment. Node is left empty — the puller
// knows the node's logical name, the node itself does not.
func (db *DB) FragmentHeat() []obs.FragmentHeat {
	db.heat.mu.RLock()
	names := make([]string, 0, len(db.heat.cols))
	for name := range db.heat.cols {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]obs.FragmentHeat, 0, len(names))
	for _, name := range names {
		c := db.heat.cols[name]
		coll, frag := name, ""
		if i := strings.Index(name, "::"); i >= 0 {
			coll, frag = name[:i], name[i+2:]
		}
		c.latencyMu.Lock()
		buckets := append([]int64(nil), c.latency...)
		c.latencyMu.Unlock()
		out = append(out, obs.FragmentHeat{
			Collection:     coll,
			Fragment:       frag,
			Queries:        c.queries.Load(),
			DocsDecoded:    c.docsDecoded.Load(),
			Bytes:          c.bytes.Load(),
			LatencyBuckets: buckets,
		})
	}
	db.heat.mu.RUnlock()
	return obs.MergeHeat(out)
}
