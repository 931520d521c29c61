// Package lru is the one bounded least-recently-used cache the repository
// keeps: the coordinator's plan cache (internal/partix) and a node's
// prepared-query cache (internal/engine) are both this type.
package lru

import (
	"container/list"
	"sync"

	"partix/internal/obs"
)

// Cache maps keys to values, holding at most capacity entries; a Put past
// it evicts from the cold end. Values are shared with every reader and
// must not be mutated after Put. It is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List
	entries   map[K]*list.Element
	evictions *obs.Counter // counts entries displaced by the cap
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache of the given capacity whose evictions count
// on evictions.
func New[K comparable, V any](capacity int, evictions *obs.Counter) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, ll: list.New(), entries: map[K]*list.Element{}, evictions: evictions}
}

// Get returns the value for key, promoting it to most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or replaces the value for key, evicting the least recently
// used entry when the cache is over capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[key]; el != nil {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	if c.ll.Len() > c.capacity {
		c.dropLocked(c.ll.Back())
		c.evictions.Inc()
	}
}

func (c *Cache[K, V]) dropLocked(el *list.Element) {
	delete(c.entries, c.ll.Remove(el).(*entry[K, V]).key)
}

// Remove drops one entry (a lookup found it stale).
func (c *Cache[K, V]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[key]; el != nil {
		c.dropLocked(el)
	}
}

// Clear drops every entry. Not counted as evictions: nothing was
// displaced by the cap.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.entries)
}

// Len reports the number of held entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
