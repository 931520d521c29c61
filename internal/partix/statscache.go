package partix

import (
	"sync"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/obs"
)

// The statistics cache holds each node's per-collection planner
// statistics (engine.CollectionStatistics) and knows which of them are
// current. Before its first fetch from a node the coordinator subscribes
// to the node's commits (cluster.StatisticsProvider.Watch) and records the
// highest generation the watch has reported per collection. A report past
// a cached snapshot's generation evicts it, and a fetched snapshot older
// than the recorded generation is never cached, so a fetch racing a write
// cannot leave a stale snapshot behind. Plan-cache entries are
// validated against the recorded generations (stampsCurrent) with no
// round trip.
//
// While a node's watch is down its statistics are absent: the planner
// keeps all of its fragments and no cache entry stamped by it is current.
// Each subscription the watch (re)establishes starts a new epoch, which
// evicts the node's snapshots and outdates every stamp of an earlier one,
// since a restarted node counts generations from zero again. A node that
// provides no statistics (indexes disabled) is cached as nil until its
// next report.

// watchRetry is how long a node whose Watch failed is planned without
// statistics before the coordinator tries to subscribe again.
const watchRetry = time.Second

// nodeStats is one node's watch state and cached snapshots.
type nodeStats struct {
	startMu sync.Mutex // guards started, retry and stop
	started bool       // Watch succeeded; the watch may since be down
	retry   time.Time  // no new Watch before
	stop    func()     // ends the watch

	// guarded by statsCache.mu
	up    bool
	epoch uint64                                  // counts the watch's Ups
	gens  map[string]uint64                       // collection → highest generation reported this epoch
	stats map[string]*engine.CollectionStatistics // cached snapshots; nil: the node provides none
}

type statsCache struct {
	mu    sync.Mutex
	nodes map[string]*nodeStats
}

func newStatsCache() *statsCache {
	return &statsCache{nodes: map[string]*nodeStats{}}
}

// watchSink feeds one node's watch into the cache.
type watchSink struct {
	sc *statsCache
	ns *nodeStats
}

func (w watchSink) Bump(collection string, gen uint64) {
	w.sc.mu.Lock()
	defer w.sc.mu.Unlock()
	ns := w.ns
	if !ns.up || gen <= ns.gens[collection] {
		return
	}
	ns.gens[collection] = gen
	if st, ok := ns.stats[collection]; ok && (st == nil || st.Generation < gen) {
		delete(ns.stats, collection)
	}
}

func (w watchSink) Up() {
	w.sc.mu.Lock()
	defer w.sc.mu.Unlock()
	w.ns.up = true
	w.ns.epoch++
	clear(w.ns.gens)
	clear(w.ns.stats)
}

func (w watchSink) Down() {
	w.sc.mu.Lock()
	defer w.sc.mu.Unlock()
	w.ns.up = false
	clear(w.ns.stats)
}

// watched returns the node's state, subscribing to the node first if it
// has not been yet. A planner that finds another one subscribing does not
// wait for it: until the watch is up the node has no statistics.
func (sc *statsCache) watched(name string, sp cluster.StatisticsProvider) *nodeStats {
	sc.mu.Lock()
	ns := sc.nodes[name]
	if ns == nil {
		ns = &nodeStats{gens: map[string]uint64{}, stats: map[string]*engine.CollectionStatistics{}}
		sc.nodes[name] = ns
	}
	sc.mu.Unlock()
	if !ns.startMu.TryLock() {
		return ns
	}
	defer ns.startMu.Unlock()
	if !ns.started && time.Now().After(ns.retry) {
		if stop, err := sp.Watch(watchSink{sc: sc, ns: ns}); err != nil {
			ns.retry = time.Now().Add(watchRetry)
		} else {
			ns.stop, ns.started = stop, true
		}
	}
	return ns
}

// forget ends a node's watch and drops everything cached for it.
func (sc *statsCache) forget(name string) {
	sc.mu.Lock()
	ns := sc.nodes[name]
	delete(sc.nodes, name)
	sc.mu.Unlock()
	if ns != nil {
		ns.startMu.Lock()
		if ns.stop != nil {
			ns.stop()
		}
		ns.started = true // a racing planner must not subscribe it again
		ns.startMu.Unlock()
	}
}

// forgetAll is forget for every node.
func (sc *statsCache) forgetAll() {
	sc.mu.Lock()
	names := make([]string, 0, len(sc.nodes))
	for name := range sc.nodes {
		names = append(names, name)
	}
	sc.mu.Unlock()
	for _, name := range names {
		sc.forget(name)
	}
}

// clear drops every cached snapshot; the watches stay.
func (sc *statsCache) clear() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, ns := range sc.nodes {
		clear(ns.stats)
	}
}

// current reports whether every stamp still describes its node: the
// node's watch is up in the stamp's epoch, and the snapshot the stamp saw
// is at least as new as every generation reported since — or, for a stamp
// without a snapshot, the node still provides none. A stamp of a node that
// keeps no statistics at all (epoch 0, no state) stays current.
func (sc *statsCache) current(stamps []genStamp) bool {
	if len(stamps) == 0 {
		return true
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, st := range stamps {
		ns := sc.nodes[st.node]
		if ns == nil {
			if st.epoch != 0 {
				return false
			}
			continue
		}
		if !ns.up || ns.epoch != st.epoch {
			return false
		}
		if st.has {
			if st.gen < ns.gens[st.collection] {
				return false
			}
		} else if cur, ok := ns.stats[st.collection]; !ok || cur != nil {
			return false
		}
	}
	return true
}

// fragmentStatistics resolves the statistics of the node-collection
// holding one fragment through the cache, with the stamp a plan built on
// them records. Unknown nodes, drivers without the StatisticsProvider
// extension, nodes without indexes, a node whose watch is down, fetch
// errors and a snapshot a report has already outdated all yield nil — the
// planner treats all of them as "no statistics" and keeps the fragment.
func (s *System) fragmentStatistics(meta *CollectionMeta, fragment string) (*engine.CollectionStatistics, genStamp) {
	nodeName, collection := meta.Placement[fragment], meta.NodeCollection(fragment)
	gs := genStamp{node: nodeName, collection: collection}
	sp, ok := s.Node(nodeName).(cluster.StatisticsProvider)
	if !ok {
		return nil, gs
	}
	sc := s.statsCache
	ns := sc.watched(nodeName, sp)
	sc.mu.Lock()
	gs.epoch = ns.epoch
	if !ns.up {
		sc.mu.Unlock()
		return nil, gs
	}
	if st, ok := ns.stats[collection]; ok {
		sc.mu.Unlock()
		return st, gs.of(st)
	}
	before := ns.gens[collection]
	sc.mu.Unlock()

	obs.CoordStatsFetches.Inc()
	st, err := sp.CollectionStatistics(collection)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fresh := err == nil && ns.up && ns.epoch == gs.epoch
	if st != nil {
		fresh = fresh && st.Generation >= ns.gens[collection]
	} else {
		fresh = fresh && ns.gens[collection] == before
	}
	if !fresh {
		return nil, gs
	}
	ns.stats[collection] = st
	return st, gs.of(st)
}
