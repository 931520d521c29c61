package obs

import (
	"sort"
	"sync"
	"time"
)

// WorkloadProfileVersion is bumped whenever the exported profile's JSON
// shape changes incompatibly; consumers check it before scoring.
const WorkloadProfileVersion = 1

// HeatLatencyBounds are the fixed per-fragment latency bucket upper
// bounds in seconds (+Inf implicit last). Fixed bounds make heat counts
// from different nodes mergeable by elementwise addition.
var HeatLatencyBounds = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// A KeyCount is one entry of a top-K frequency sketch. Count may
// overestimate by at most Err (the space-saving error bound inherited
// from the evicted minimum when the key entered a full sketch).
type KeyCount struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
}

// CollectionWorkload is one collection's mined traffic: how many
// queries touched it and the top-K paths and predicates they used.
type CollectionWorkload struct {
	Collection string     `json:"collection"`
	Queries    int64      `json:"queries"`
	Paths      []KeyCount `json:"paths,omitempty"`
	Predicates []KeyCount `json:"predicates,omitempty"`
}

// FragmentHeat is one fragment's load counters. LatencyBuckets count
// observations per HeatLatencyBounds bucket (+Inf last) so entries from
// different nodes merge by elementwise addition; P99Seconds is the
// bucket-resolution estimate computed at export time.
type FragmentHeat struct {
	Collection     string  `json:"collection"`
	Fragment       string  `json:"fragment,omitempty"`
	Node           string  `json:"node,omitempty"`
	Queries        int64   `json:"queries"`
	DocsDecoded    int64   `json:"docsDecoded,omitempty"`
	Bytes          int64   `json:"bytes,omitempty"`
	LatencyBuckets []int64 `json:"latencyBuckets,omitempty"`
	P99Seconds     float64 `json:"p99Seconds,omitempty"`
}

// A WorkloadProfile is the versioned, JSON-exportable summary of the
// observed query traffic: per-collection path/predicate frequency and
// per-fragment heat. internal/design scores fragmentation schemes
// against it; PR 10's refragmentation loop consumes it.
type WorkloadProfile struct {
	Version     int                  `json:"version"`
	Collections []CollectionWorkload `json:"collections,omitempty"`
	Fragments   []FragmentHeat       `json:"fragments,omitempty"`
}

// A TelemetrySnapshot is one node's telemetry as pulled over the wire:
// its scalar metric series and its per-fragment heat. Node is filled by
// the puller (the node does not know its logical cluster name).
type TelemetrySnapshot struct {
	Node    string
	Metrics map[string]float64
	Heat    []FragmentHeat
}

// ssEntry is one monitored key of a space-saving sketch.
type ssEntry struct {
	count int64
	err   int64
}

// spaceSaving is the Metwally et al. space-saving top-K sketch: at most
// k monitored keys; an unmonitored arrival evicts the current minimum
// and inherits its count as the new key's error bound. Guarantees every
// key with true frequency > min(count) is monitored.
type spaceSaving struct {
	k      int
	counts map[string]*ssEntry
}

func newSpaceSaving(k int) *spaceSaving {
	return &spaceSaving{k: k, counts: make(map[string]*ssEntry, k)}
}

func (s *spaceSaving) observe(key string) {
	if e, ok := s.counts[key]; ok {
		e.count++
		return
	}
	if len(s.counts) < s.k {
		s.counts[key] = &ssEntry{count: 1}
		return
	}
	// Evict the minimum; the newcomer inherits its count as error bound.
	var minKey string
	var min *ssEntry
	for k, e := range s.counts {
		if min == nil || e.count < min.count {
			minKey, min = k, e
		}
	}
	delete(s.counts, minKey)
	s.counts[key] = &ssEntry{count: min.count + 1, err: min.count}
}

// entries returns the monitored keys sorted by descending count (ties
// by key for determinism).
func (s *spaceSaving) entries() []KeyCount {
	out := make([]KeyCount, 0, len(s.counts))
	for k, e := range s.counts {
		out = append(out, KeyCount{Key: k, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// collWorkload accumulates one collection's sketches.
type collWorkload struct {
	queries int64
	paths   *spaceSaving
	preds   *spaceSaving
}

// fragHeat accumulates one fragment's counters.
type fragHeat struct {
	queries     int64
	docsDecoded int64
	bytes       int64
	latency     []int64 // len(HeatLatencyBounds)+1
}

func (h *fragHeat) observeLatency(seconds float64) {
	i := 0
	for i < len(HeatLatencyBounds) && seconds > HeatLatencyBounds[i] {
		i++
	}
	h.latency[i]++
}

// DefaultWorkloadTopK is the sketch width NewWorkloadProfiler uses for
// topK <= 0: wide enough for the distinct paths/predicates of any
// realistic per-collection workload, narrow enough to stay O(1).
const DefaultWorkloadTopK = 16

// A WorkloadProfiler mines query traffic into per-collection top-K
// path/predicate sketches and per-fragment heat counters. All methods
// are safe for concurrent use; the hot-path cost is one short mutexed
// map update per query.
type WorkloadProfiler struct {
	mu          sync.Mutex
	topK        int
	collections map[string]*collWorkload
	fragments   map[fragKey]*fragHeat
}

// fragKey names one fragment of one collection. A struct key keeps the
// per-sub-query lookup allocation-free.
type fragKey struct{ collection, fragment string }

// NewWorkloadProfiler returns a profiler keeping topK keys per sketch
// (DefaultWorkloadTopK if topK <= 0).
func NewWorkloadProfiler(topK int) *WorkloadProfiler {
	if topK <= 0 {
		topK = DefaultWorkloadTopK
	}
	return &WorkloadProfiler{
		topK:        topK,
		collections: make(map[string]*collWorkload),
		fragments:   make(map[fragKey]*fragHeat),
	}
}

func (p *WorkloadProfiler) coll(name string) *collWorkload {
	c, ok := p.collections[name]
	if !ok {
		c = &collWorkload{paths: newSpaceSaving(p.topK), preds: newSpaceSaving(p.topK)}
		p.collections[name] = c
	}
	return c
}

func (p *WorkloadProfiler) frag(collection, fragment string) *fragHeat {
	key := fragKey{collection, fragment}
	h, ok := p.fragments[key]
	if !ok {
		h = &fragHeat{latency: make([]int64, len(HeatLatencyBounds)+1)}
		p.fragments[key] = h
	}
	return h
}

// ObserveQuery records one query against collection, feeding its
// canonical path and predicate keys into the sketches.
func (p *WorkloadProfiler) ObserveQuery(collection string, paths, predicates []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.coll(collection)
	c.queries++
	for _, path := range paths {
		c.paths.observe(path)
	}
	for _, pred := range predicates {
		c.preds.observe(pred)
	}
}

// ObserveFragment records one sub-query served by a fragment: docs
// decoded (0 when unknown at this layer), result bytes, and latency.
func (p *WorkloadProfiler) ObserveFragment(collection, fragment string, docsDecoded, bytes int64, seconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.frag(collection, fragment)
	h.queries++
	h.docsDecoded += docsDecoded
	h.bytes += bytes
	h.observeLatency(seconds)
}

// Profile exports the current state as a versioned WorkloadProfile.
func (p *WorkloadProfiler) Profile() *WorkloadProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	prof := &WorkloadProfile{Version: WorkloadProfileVersion}
	collNames := make([]string, 0, len(p.collections))
	for name := range p.collections {
		collNames = append(collNames, name)
	}
	sort.Strings(collNames)
	for _, name := range collNames {
		c := p.collections[name]
		prof.Collections = append(prof.Collections, CollectionWorkload{
			Collection: name,
			Queries:    c.queries,
			Paths:      c.paths.entries(),
			Predicates: c.preds.entries(),
		})
	}
	fragKeys := make([]fragKey, 0, len(p.fragments))
	for key := range p.fragments {
		fragKeys = append(fragKeys, key)
	}
	sort.Slice(fragKeys, func(i, j int) bool {
		if fragKeys[i].collection != fragKeys[j].collection {
			return fragKeys[i].collection < fragKeys[j].collection
		}
		return fragKeys[i].fragment < fragKeys[j].fragment
	})
	for _, key := range fragKeys {
		h := p.fragments[key]
		buckets := make([]int64, len(h.latency))
		copy(buckets, h.latency)
		prof.Fragments = append(prof.Fragments, FragmentHeat{
			Collection:     key.collection,
			Fragment:       key.fragment,
			Queries:        h.queries,
			DocsDecoded:    h.docsDecoded,
			Bytes:          h.bytes,
			LatencyBuckets: buckets,
			P99Seconds:     heatP99(buckets),
		})
	}
	return prof
}

// Reset clears every sketch and counter.
func (p *WorkloadProfiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.collections = make(map[string]*collWorkload)
	p.fragments = make(map[fragKey]*fragHeat)
}

// heatP99 estimates the 99th-percentile latency from bucket counts: the
// upper bound of the bucket where the cumulative count crosses 99%.
// When p99 lands in the +Inf bucket the last finite bound is reported
// (JSON cannot carry infinity).
func heatP99(buckets []int64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := (total*99 + 99) / 100 // ceil(0.99 * total)
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum >= target {
			if i < len(HeatLatencyBounds) {
				return HeatLatencyBounds[i]
			}
			return HeatLatencyBounds[len(HeatLatencyBounds)-1]
		}
	}
	return HeatLatencyBounds[len(HeatLatencyBounds)-1]
}

// MergeHeat combines heat entries that describe the same collection and
// fragment (summing counters and latency buckets elementwise) and
// recomputes each survivor's p99. Node is kept when every merged entry
// agrees on it and cleared otherwise. Entries come back sorted by
// collection, then fragment.
func MergeHeat(entries []FragmentHeat) []FragmentHeat {
	type key struct{ coll, frag string }
	merged := make(map[key]*FragmentHeat)
	order := make([]key, 0, len(entries))
	for _, e := range entries {
		k := key{e.Collection, e.Fragment}
		m, ok := merged[k]
		if !ok {
			cp := e
			cp.LatencyBuckets = append([]int64(nil), e.LatencyBuckets...)
			merged[k] = &cp
			order = append(order, k)
			continue
		}
		m.Queries += e.Queries
		m.DocsDecoded += e.DocsDecoded
		m.Bytes += e.Bytes
		if m.Node != e.Node {
			m.Node = ""
		}
		if len(m.LatencyBuckets) < len(e.LatencyBuckets) {
			m.LatencyBuckets = append(m.LatencyBuckets, make([]int64, len(e.LatencyBuckets)-len(m.LatencyBuckets))...)
		}
		for i, c := range e.LatencyBuckets {
			m.LatencyBuckets[i] += c
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].coll != order[j].coll {
			return order[i].coll < order[j].coll
		}
		return order[i].frag < order[j].frag
	})
	out := make([]FragmentHeat, 0, len(order))
	for _, k := range order {
		m := merged[k]
		m.P99Seconds = heatP99(m.LatencyBuckets)
		out = append(out, *m)
	}
	return out
}

// HeatLatencySeconds returns an entry's approximate mean share of
// observed time, bucket-estimated: sum over buckets of count × bound.
// Useful for ranking fragments by total time served.
func (h FragmentHeat) HeatLatencySeconds() float64 {
	var total float64
	for i, c := range h.LatencyBuckets {
		bound := HeatLatencyBounds[len(HeatLatencyBounds)-1]
		if i < len(HeatLatencyBounds) {
			bound = HeatLatencyBounds[i]
		}
		total += float64(c) * bound
	}
	return total
}

// ObserveLatencyBucket returns the bucket index a latency falls into,
// exported for engine-side heat accounting that keeps its own atomic
// bucket arrays.
func ObserveLatencyBucket(d time.Duration) int {
	s := d.Seconds()
	i := 0
	for i < len(HeatLatencyBounds) && s > HeatLatencyBounds[i] {
		i++
	}
	return i
}
