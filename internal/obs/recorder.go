package obs

import (
	"sync/atomic"
	"time"
)

// FragmentTiming is the per-fragment slice of one recorded query: which
// node served the fragment, how long it took, and how much it shipped.
type FragmentTiming struct {
	Fragment  string `json:"fragment,omitempty"`
	Node      string `json:"node,omitempty"`
	ElapsedNs int64  `json:"elapsedNs"`
	Items     int    `json:"items"`
	Bytes     int    `json:"bytes"`
	Cancelled bool   `json:"cancelled,omitempty"`
}

// A QueryRecord is one entry in the flight recorder: everything needed
// to reconstruct what a query did after the fact. Records are immutable
// once handed to Record — snapshot readers share them without copying.
type QueryRecord struct {
	UnixNano    int64            `json:"unixNano"`
	TraceID     string           `json:"traceId,omitempty"`
	Query       string           `json:"query"` // normalized text
	Strategy    string           `json:"strategy,omitempty"`
	DurationNs  int64            `json:"durationNs"`
	PlanNs      int64            `json:"planNs,omitempty"`
	Items       int              `json:"items"`
	Bytes       int              `json:"bytes,omitempty"`
	Frames      int              `json:"frames,omitempty"`
	DocsDecoded int64            `json:"docsDecoded,omitempty"`
	DocsPruned  int64            `json:"docsPruned,omitempty"`
	PlanCached  bool             `json:"planCached,omitempty"`
	Compiled    bool             `json:"compiled,omitempty"`
	IndexOnly   bool             `json:"indexOnly,omitempty"` // every node may decide its sub-query from its indexes (exec.Program.Decides)
	Slow        bool             `json:"slow,omitempty"`
	Error       string           `json:"error,omitempty"`
	Fragments   []FragmentTiming `json:"fragments,omitempty"`
	Spans       *Span            `json:"spans,omitempty"`
}

// A FlightRecorder keeps the last capacity query records in a bounded
// ring. Writers claim a slot with one atomic add and publish the record
// with one atomic pointer store — no locks, no blocking, safe from any
// number of goroutines. Readers snapshot by loading the pointers; since
// records are immutable the snapshot needs no synchronization either.
//
// Tail sampling keeps the recorder cheap under load without losing the
// interesting queries: errored queries and queries at or above the slow
// threshold are always recorded; the rest are recorded 1-in-N per
// SetSampleEvery (N=1, the default, records everything).
type FlightRecorder struct {
	ring        []atomic.Pointer[QueryRecord]
	pos         atomic.Uint64 // next slot to claim
	tick        atomic.Uint64 // sampling counter for non-slow, non-error queries
	sampleEvery atomic.Int64  // record 1 in N ordinary queries (min 1)
	slowNs      atomic.Int64  // always record at/above this duration (0 = off)
	recorded    atomic.Int64
	sampledOut  atomic.Int64
}

// DefaultRecorderCapacity is the ring size NewFlightRecorder uses for
// capacity <= 0. 256 records at well under 1 KiB each bounds the
// recorder's memory to a fraction of one decoded document tree.
const DefaultRecorderCapacity = 256

// NewFlightRecorder returns a recorder holding the last capacity
// records (DefaultRecorderCapacity if capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	r := &FlightRecorder{ring: make([]atomic.Pointer[QueryRecord], capacity)}
	r.sampleEvery.Store(1)
	return r
}

// SetSampleEvery records 1 in n ordinary (not slow, not errored)
// queries. n <= 1 records everything.
func (r *FlightRecorder) SetSampleEvery(n int) {
	if n < 1 {
		n = 1
	}
	r.sampleEvery.Store(int64(n))
}

// SetSlowThreshold marks queries at or above d as slow; slow queries
// bypass sampling and are always recorded. d <= 0 disables the slow
// fast-path (sampling alone decides).
func (r *FlightRecorder) SetSlowThreshold(d time.Duration) {
	r.slowNs.Store(int64(d))
}

// ShouldRecord decides whether a query with the given duration and
// failure state is recorded, applying tail sampling. Callers that
// build records lazily check this first so sampled-out queries cost
// one atomic add and nothing else.
func (r *FlightRecorder) ShouldRecord(duration time.Duration, failed bool) bool {
	if failed {
		return true
	}
	if slow := r.slowNs.Load(); slow > 0 && int64(duration) >= slow {
		return true
	}
	n := r.sampleEvery.Load()
	if n <= 1 {
		return true
	}
	if r.tick.Add(1)%uint64(n) == 0 {
		return true
	}
	r.sampledOut.Add(1)
	return false
}

// IsSlow reports whether duration meets the slow threshold.
func (r *FlightRecorder) IsSlow(duration time.Duration) bool {
	slow := r.slowNs.Load()
	return slow > 0 && int64(duration) >= slow
}

// Record publishes rec into the ring, evicting the oldest entry once
// full. rec must not be mutated afterwards.
func (r *FlightRecorder) Record(rec *QueryRecord) {
	i := r.pos.Add(1) - 1
	r.ring[i%uint64(len(r.ring))].Store(rec)
	r.recorded.Add(1)
}

// Snapshot returns up to max records, newest first (max <= 0 returns
// everything retained). The returned records are shared and must be
// treated as read-only.
func (r *FlightRecorder) Snapshot(max int) []*QueryRecord {
	n := len(r.ring)
	if max <= 0 || max > n {
		max = n
	}
	out := make([]*QueryRecord, 0, max)
	pos := r.pos.Load()
	for i := 0; i < n && len(out) < max; i++ {
		// Walk backwards from the most recently claimed slot.
		slot := (pos + uint64(n) - 1 - uint64(i)) % uint64(n)
		if rec := r.ring[slot].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// Stats returns how many records were published and how many ordinary
// queries sampling dropped.
func (r *FlightRecorder) Stats() (recorded, sampledOut int64) {
	return r.recorded.Load(), r.sampledOut.Load()
}
