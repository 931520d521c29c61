package partix

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"partix/internal/cluster"
	"partix/internal/fragmentation"
	"partix/internal/lru"
	"partix/internal/obs"
	"partix/internal/xmltree"
)

// System is a running PartiX deployment: a set of DBMS nodes behind
// drivers, the catalogs, and the query service configuration.
type System struct {
	mu           sync.RWMutex
	nodes        map[string]cluster.Driver
	catalog      *Catalog
	cost         cluster.CostModel
	concurrent   bool
	tracing      bool
	slowQuery    time.Duration
	logger       obs.Logger
	plannerStats bool

	planCache  *lru.Cache[string, *planEntry]
	statsCache *statsCache

	// recorder and profiler are created once and never replaced; every
	// query feeds them.
	recorder *obs.FlightRecorder
	profiler *obs.WorkloadProfiler
}

// SetConcurrent switches the sub-query scheduler between one sub-query
// in flight — the paper's simulated mode, sequential with slowest-site
// accounting, the default — and all of them at once, the real concurrent
// execution a deployment over remote nodes wants.
func (s *System) SetConcurrent(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.concurrent = on
}

// Concurrent reports the execution mode.
func (s *System) Concurrent() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.concurrent
}

// SetTracing enables distributed query tracing: every query gets a trace
// ID that is propagated to the nodes, each node times its processing
// steps and returns them with the last frame of its answer, and the
// result carries the assembled span tree. A traced query executes exactly
// as an untraced one does — same plan, same sub-query route, same
// frames.
func (s *System) SetTracing(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracing = on
}

// Tracing reports whether distributed query tracing is enabled.
func (s *System) Tracing() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracing
}

// SetSlowQueryThreshold makes queries slower than d emit a structured
// warning through the system logger (and count in the slow-query metric).
// Zero, the default, disables the log.
func (s *System) SetSlowQueryThreshold(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slowQuery = d
}

// SlowQueryThreshold reports the slow-query log threshold.
func (s *System) SlowQueryThreshold() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.slowQuery
}

// SetLogger installs the structured logger the query service uses for
// slow-query warnings. nil restores the default no-op logger.
func (s *System) SetLogger(l obs.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l == nil {
		l = obs.Nop()
	}
	s.logger = l
}

// Logger returns the system's structured logger (never nil).
func (s *System) Logger() obs.Logger {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.logger
}

// SetPlannerStats switches statistics-driven planning (fragment
// skipping, cardinality estimates, reconstruction ordering) on or off.
// On is the default; off restores pure rule-based planning — the naive
// union-all baseline the benchmarks compare against. Toggling drops all
// cached plans, which embed the decisions of the previous mode.
func (s *System) SetPlannerStats(on bool) {
	s.mu.Lock()
	changed := s.plannerStats != on
	s.plannerStats = on
	s.mu.Unlock()
	if changed {
		s.planCache.Clear()
	}
}

// PlannerStats reports whether statistics-driven planning is enabled.
func (s *System) PlannerStats() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.plannerStats
}

// InvalidatePlans drops every cached plan and fragment-statistics
// snapshot, so the next query plans from statistics fetched afresh.
// Node-side writes need no call: each node reports its commits to the
// coordinator, which outdates what they touched.
func (s *System) InvalidatePlans() {
	s.planCache.Clear()
	s.statsCache.clear()
}

// Metrics snapshots the process-wide observability registry: every
// partix_* series with its current value (histograms as _sum/_count
// pairs). The map is a copy; mutating it changes nothing.
func (s *System) Metrics() map[string]float64 {
	return obs.Default.Snapshot()
}

// NewSystem returns a system with the given communication cost model.
// Statistics-driven planning and the plan cache (128 plans) are on by
// default; see SetPlannerStats.
func NewSystem(cost cluster.CostModel) *System {
	return &System{
		nodes:        map[string]cluster.Driver{},
		catalog:      NewCatalog(),
		cost:         cost,
		logger:       obs.Nop(),
		plannerStats: true,
		planCache:    newPlanCache(),
		statsCache:   newStatsCache(),
		recorder:     obs.NewFlightRecorder(0),
		profiler:     obs.NewWorkloadProfiler(0),
	}
}

// AddNode registers a DBMS node. A node registered under the name of an
// earlier one replaces it, and what the coordinator knew of the earlier
// one's statistics is dropped.
func (s *System) AddNode(d cluster.Driver) {
	s.mu.Lock()
	s.nodes[d.Name()] = d
	s.mu.Unlock()
	s.statsCache.forget(d.Name())
}

// Node returns the driver for a node name, or nil.
func (s *System) Node(name string) cluster.Driver {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodes[name]
}

// Nodes lists node names, sorted.
func (s *System) Nodes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.nodes))
	for n := range s.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CheckNodes verifies connectivity to every registered node, returning
// node name → error (nil when healthy). Remote drivers are probed with a
// protocol round trip (cluster.Pinger); in-process drivers are always
// reachable and report nil.
func (s *System) CheckNodes() map[string]error {
	s.mu.RLock()
	nodes := make(map[string]cluster.Driver, len(s.nodes))
	for name, d := range s.nodes {
		nodes[name] = d
	}
	s.mu.RUnlock()
	out := make(map[string]error, len(nodes))
	for name, d := range nodes {
		if p, ok := d.(cluster.Pinger); ok {
			out[name] = p.Ping()
		} else {
			out[name] = nil
		}
	}
	return out
}

// CloseNodes ends the coordinator's statistics watches and closes every
// driver holding external resources (remote connections), joining any
// close errors. In-process drivers are left untouched — their engine's
// lifecycle belongs to the caller.
func (s *System) CloseNodes() error {
	s.statsCache.forgetAll()
	s.mu.RLock()
	drivers := make([]cluster.Driver, 0, len(s.nodes))
	for _, d := range s.nodes {
		drivers = append(drivers, d)
	}
	s.mu.RUnlock()
	var errs []error
	for _, d := range drivers {
		if c, ok := d.(io.Closer); ok {
			if err := c.Close(); err != nil {
				errs = append(errs, fmt.Errorf("node %s: %w", d.Name(), err))
			}
		}
	}
	return errors.Join(errs...)
}

// Catalog exposes the metadata catalog.
func (s *System) Catalog() *Catalog { return s.catalog }

// CostModel returns the communication model in use.
func (s *System) CostModel() cluster.CostModel { return s.cost }

// PublishOptions configure Publish.
type PublishOptions struct {
	// Mode selects the hybrid materialization (FragMode1 vs FragMode2).
	Mode fragmentation.MaterializeMode
	// CheckCorrectness additionally verifies the three correctness rules
	// of Section 3.3 against the concrete collection before distributing
	// anything. It reads the whole collection, so large loads may prefer
	// to validate on a sample.
	CheckCorrectness bool
	// Replicas optionally maps fragment name → additional nodes that
	// receive a full copy of the fragment for failover.
	Replicas map[string][]string
}

// Publish is the Distributed XML Data Publisher: it registers the
// collection's metadata, applies the fragmentation to the documents, and
// sends each fragment to its node. placement maps fragment name → node
// name; for an unfragmented collection (scheme nil) use {"": node}.
func (s *System) Publish(c *xmltree.Collection, scheme *fragmentation.Scheme, placement map[string]string, opts PublishOptions) error {
	meta := &CollectionMeta{Name: c.Name, Scheme: scheme, Placement: placement, Replicas: opts.Replicas, Mode: opts.Mode}
	if err := s.catalog.Register(meta); err != nil {
		return err
	}
	// Registration bumped the catalog version, which already invalidates
	// cached plans; the statistics snapshots of the touched nodes go stale
	// too once documents land, and over TCP the nodes' reports of those
	// writes may still be in flight when Publish returns, so drop the
	// snapshots when publishing ends (even a partial publish mutated node
	// data).
	defer s.statsCache.clear()
	for frag, nodeName := range placement {
		if s.Node(nodeName) == nil {
			return fmt.Errorf("partix: placement of %q references unknown node %q", frag, nodeName)
		}
	}
	for frag, replicas := range opts.Replicas {
		for _, nodeName := range replicas {
			if s.Node(nodeName) == nil {
				return fmt.Errorf("partix: replica of %q references unknown node %q", frag, nodeName)
			}
		}
	}
	if scheme == nil {
		if err := s.storeCollection(placement[""], c.Name, c); err != nil {
			return err
		}
		for _, replica := range opts.Replicas[""] {
			if err := s.storeCollection(replica, c.Name, c); err != nil {
				return err
			}
		}
		return nil
	}
	if opts.CheckCorrectness {
		if err := scheme.Check(c); err != nil {
			return fmt.Errorf("partix: fragmentation of %q is incorrect: %w", c.Name, err)
		}
	}
	frags, err := scheme.ApplyMode(c, opts.Mode)
	if err != nil {
		return err
	}
	for i, f := range scheme.Fragments {
		targets := append([]string{placement[f.Name]}, opts.Replicas[f.Name]...)
		for _, nodeName := range targets {
			if err := s.storeCollection(nodeName, meta.NodeCollection(f.Name), frags[i]); err != nil {
				return fmt.Errorf("partix: publish fragment %q to %q: %w", f.Name, nodeName, err)
			}
		}
	}
	return nil
}

func (s *System) storeCollection(nodeName, collection string, c *xmltree.Collection) error {
	node := s.Node(nodeName)
	if node == nil {
		return fmt.Errorf("partix: unknown node %q", nodeName)
	}
	if err := node.CreateCollection(collection); err != nil {
		return err
	}
	for _, d := range c.Docs {
		if err := node.StoreDocument(collection, d); err != nil {
			return err
		}
	}
	return nil
}

// FragmentStats reports per-fragment document counts and bytes, as stored
// on the nodes.
func (s *System) FragmentStats(collection string) (map[string]int64, error) {
	meta := s.catalog.Lookup(collection)
	if meta == nil {
		return nil, fmt.Errorf("partix: unknown collection %q", collection)
	}
	out := map[string]int64{}
	for frag, nodeName := range meta.Placement {
		node := s.Node(nodeName)
		st, err := node.CollectionStats(meta.NodeCollection(frag))
		if err != nil {
			return nil, err
		}
		out[frag] = st.Bytes
	}
	return out, nil
}
