package partix

import (
	"time"

	"partix/internal/cluster"
	"partix/internal/obs"
	"partix/internal/xquery"
)

// Recorder exposes the query flight recorder, for configuration
// (sampling, slow threshold) and snapshots. Never nil.
func (s *System) Recorder() *obs.FlightRecorder { return s.recorder }

// Profiler exposes the workload profiler. Never nil.
func (s *System) Profiler() *obs.WorkloadProfiler { return s.profiler }

// WorkloadProfile exports the coordinator's mined workload: per-collection
// top-K paths and predicates, and per-fragment heat as observed from the
// coordinator (sub-query latency including the network, result bytes).
// Node-local heat — decode counts the coordinator cannot see — comes from
// ClusterTelemetry.
func (s *System) WorkloadProfile() *obs.WorkloadProfile {
	return s.profiler.Profile()
}

// recordQuery feeds one finished (or failed) query into the profiler and
// the flight recorder. It runs after the response is fully assembled, so
// everything here is off the latency path the caller observes — except
// that it still runs synchronously, which is why the sampled-out exit is
// a single atomic add. p is nil when the query never produced a plan
// (parse or planning failure) — those still belong in the flight
// recorder, since a query that cannot even plan is exactly what an
// operator goes looking for.
func (s *System) recordQuery(p *queryPlan, e xquery.Expr,
	norm, tag string, planTime, elapsed time.Duration, cached bool, res *QueryResult, qerr error) {
	rec, prof := s.recorder, s.profiler
	if p != nil && p.work != nil {
		for coll, wk := range p.work {
			prof.ObserveQuery(coll, wk.Paths, wk.Predicates)
		}
		if res != nil {
			for i, st := range res.Sub {
				prof.ObserveFragment(p.steps[i].meta.Name, st.Fragment, 0, int64(st.ResultBytes), st.Elapsed.Seconds())
			}
		}
	}
	if !rec.ShouldRecord(elapsed, qerr != nil) {
		obs.TelemetrySampledOut.Inc()
		return
	}
	if norm == "" && e != nil {
		norm = xquery.NormalizeQueryText(xquery.Format(e))
	}
	qr := &obs.QueryRecord{
		UnixNano:   time.Now().UnixNano(),
		TraceID:    tag,
		Query:      norm,
		DurationNs: int64(elapsed),
		PlanNs:     int64(planTime),
		PlanCached: cached,
		Slow:       rec.IsSlow(elapsed),
	}
	if p != nil {
		qr.Strategy = string(p.strategy)
		qr.IndexOnly = planIndexOnly(p)
	}
	if qerr != nil {
		qr.Error = qerr.Error()
	}
	if res != nil {
		qr.Items = len(res.Items)
		qr.Frames = res.Frames
		qr.Spans = res.Trace
		for _, st := range res.Sub {
			qr.Bytes += st.ResultBytes
			qr.Fragments = append(qr.Fragments, obs.FragmentTiming{
				Fragment:  st.Fragment,
				Node:      st.Node,
				ElapsedNs: int64(st.Elapsed),
				Items:     st.Items,
				Bytes:     st.ResultBytes,
				Cancelled: st.Cancelled,
			})
		}
	}
	rec.Record(qr)
	obs.TelemetryRecords.Inc()
}

// recordPlanFailure routes a query that died before producing a plan —
// parse error, unknown collection, planner rejection — into the flight
// recorder, tagged like any other query so the record joins with log
// lines. The profiler is not fed: there is no plan to mine keys from.
func (s *System) recordPlanFailure(e xquery.Expr, norm string, planTime time.Duration, qerr error) {
	s.recordQuery(nil, e, norm, obs.NewTraceID(), planTime, planTime, false, nil, qerr)
}

// planIndexOnly reports whether every sub-query of the plan was judged
// answerable from the node's indexes alone.
func planIndexOnly(p *queryPlan) bool {
	if len(p.steps) == 0 {
		return false
	}
	for _, st := range p.steps {
		if !p.est[st.fragment].indexOnly {
			return false
		}
	}
	return true
}

// NodeTelemetryStatus is one node's standing in a cluster telemetry
// pull: whether its driver supports the telemetry operation and the pull
// error, if any.
type NodeTelemetryStatus struct {
	Node      string `json:"node"`
	Supported bool   `json:"supported"`
	Err       string `json:"err,omitempty"`
}

// ClusterTelemetry is the cluster-wide aggregate: summed metric series
// (coordinator registry plus every reachable node), the coordinator's
// workload profile, node-local fragment heat merged across nodes (this
// is where decode counts live — the coordinator cannot observe them),
// and per-node pull status.
type ClusterTelemetry struct {
	Metrics  map[string]float64    `json:"metrics"`
	Profile  *obs.WorkloadProfile  `json:"profile"`
	NodeHeat []obs.FragmentHeat    `json:"nodeHeat,omitempty"`
	Nodes    []NodeTelemetryStatus `json:"nodes"`
}

// ClusterTelemetry pulls telemetry from every registered node and merges
// it with the coordinator's own. Nodes that fail to answer are reported
// in the status list rather than failing the aggregation — a metrics
// endpoint that goes dark because one node is down would be useless
// exactly when it matters. The coordinator's profile keeps its own
// fragment heat (latency as clients experience it, network included);
// NodeHeat carries the node-local view keyed by serving node.
func (s *System) ClusterTelemetry() *ClusterTelemetry {
	out := &ClusterTelemetry{
		Metrics: obs.Default.Snapshot(),
		Profile: s.profiler.Profile(),
	}
	var nodeHeat []obs.FragmentHeat
	for _, name := range s.Nodes() {
		tp, ok := s.Node(name).(cluster.TelemetryProvider)
		if !ok {
			out.Nodes = append(out.Nodes, NodeTelemetryStatus{Node: name})
			continue
		}
		obs.TelemetryPulls.Inc()
		snap, err := tp.Telemetry()
		if err != nil {
			obs.TelemetryPullErrors.Inc()
			out.Nodes = append(out.Nodes, NodeTelemetryStatus{Node: name, Supported: true, Err: err.Error()})
			continue
		}
		if snap == nil {
			// The driver exists but has nothing to report.
			out.Nodes = append(out.Nodes, NodeTelemetryStatus{Node: name})
			continue
		}
		out.Nodes = append(out.Nodes, NodeTelemetryStatus{Node: name, Supported: true})
		for k, v := range snap.Metrics {
			out.Metrics[k] += v
		}
		for _, h := range snap.Heat {
			if h.Node == "" {
				h.Node = snap.Node
			}
			nodeHeat = append(nodeHeat, h)
		}
	}
	out.NodeHeat = obs.MergeHeat(nodeHeat)
	return out
}
