package partix

import (
	"container/list"
	"sync"

	"partix/internal/engine"
	"partix/internal/obs"
)

// The coordinator's plan and result caches share one shape: an LRU keyed
// by normalized query text whose entries are stamped with the metadata
// they were built from (see stampSet). This file holds that shape once —
// the byte-budgeted LRU core and the single validity check.

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

// stampSet is the metadata a cached entry depends on: the catalog
// version and one generation stamp per fragment whose statistics or data
// went into the entry.
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

// lru is a cost-budgeted least-recently-used cache keyed by string. Each
// entry carries a cost; puts evict from the cold end until the summed
// cost fits the budget again. A non-positive budget disables the cache.
// Values are shared with every reader and must not be mutated after put.
type lru[V any] struct {
	mu        sync.Mutex
	limit     int64 // budget; <= 0 disables the cache
	cost      int64 // summed cost of the held entries
	ll        *list.List
	entries   map[string]*list.Element
	evictions *obs.Counter // counts entries displaced by the budget
	gauge     *obs.Gauge   // optional; mirrors the held cost
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

func newLRU[V any](budget int64, evictions *obs.Counter, gauge *obs.Gauge) *lru[V] {
	return &lru[V]{limit: budget, ll: list.New(), entries: map[string]*list.Element{},
		evictions: evictions, gauge: gauge}
}

// get returns the value for key, promoting it to most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts or replaces the value for key and evicts from the cold end
// until the budget holds — the new entry included, when it alone is over
// budget.
func (c *lru[V]) put(key string, val V, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit <= 0 {
		return
	}
	if el := c.entries[key]; el != nil {
		e := el.Value.(*lruEntry[V])
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
		c.cost += cost
	}
	c.shrinkLocked()
}

// shrinkLocked evicts from the cold end until the budget holds.
func (c *lru[V]) shrinkLocked() {
	for c.cost > c.limit && c.ll.Len() > 0 {
		c.dropLocked(c.ll.Back())
		c.evictions.Inc()
	}
	c.setGaugeLocked()
}

func (c *lru[V]) dropLocked(el *list.Element) {
	e := c.ll.Remove(el).(*lruEntry[V])
	delete(c.entries, e.key)
	c.cost -= e.cost
}

func (c *lru[V]) setGaugeLocked() {
	if c.gauge != nil {
		c.gauge.Set(c.cost)
	}
}

// remove drops one entry (a lookup found it stale).
func (c *lru[V]) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[key]; el != nil {
		c.dropLocked(el)
		c.setGaugeLocked()
	}
}

// clear drops every entry. Not counted as evictions: nothing was
// displaced by the budget.
func (c *lru[V]) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearLocked()
}

func (c *lru[V]) clearLocked() {
	c.ll.Init()
	clear(c.entries)
	c.cost = 0
	c.setGaugeLocked()
}

// setBudget changes the budget, evicting down to it cold end first; a
// non-positive budget disables the cache and drops everything.
func (c *lru[V]) setBudget(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	if n <= 0 {
		c.clearLocked()
		return
	}
	c.shrinkLocked()
}

// budget reports the current budget.
func (c *lru[V]) budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// len reports the number of held entries.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// used reports the summed cost of the held entries.
func (c *lru[V]) used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}
