package wire

// Coverage for the telemetry surface: OpTelemetry pulls a node's metric
// snapshot and per-fragment heat, and a query's correlation tag survives
// into FrameErr so failures correlate across machines.

import (
	"errors"
	"strings"
	"testing"

	"partix/internal/obs"
)

// OpTelemetry pulls the node's telemetry: metric
// series, per-fragment heat for the queried collection, and the
// server-side recorder and profiler both saw the traffic.
func TestTelemetryRoundTrip(t *testing.T) {
	db := newNodeDB(t, 5)
	rec := obs.NewFlightRecorder(0)
	prof := obs.NewWorkloadProfiler(0)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{Recorder: rec, Profiler: prof})
	c := dialStream(t, addr, ClientOptions{})

	mustCount(t, c, 5)
	mustQuery(t, c, allItemsQuery) // FLWOR shape: feeds the profiler's key miner

	snap, err := c.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no telemetry")
	}
	if snap.Node != "n0" {
		t.Fatalf("snapshot node = %q, want the puller's name for the peer", snap.Node)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("snapshot carries no metric series")
	}
	var heated bool
	for _, h := range snap.Heat {
		if h.Collection == "c" && h.Queries > 0 {
			heated = true
		}
	}
	if !heated {
		t.Fatalf("no heat for the queried collection: %+v", snap.Heat)
	}

	if recorded, _ := rec.Stats(); recorded == 0 {
		t.Fatal("served query never reached the flight recorder")
	}
	var profiled bool
	for _, cw := range prof.Profile().Collections {
		if cw.Collection == "c" && cw.Queries > 0 {
			profiled = true
		}
	}
	if !profiled {
		t.Fatalf("served query never reached the profiler: %+v", prof.Profile().Collections)
	}
}

// A tagged streamed query that fails on the node carries the trace ID
// back in the FrameErr, so the coordinator's error joins with the
// node's log line.
func TestTaggedStreamErrorCarriesTraceID(t *testing.T) {
	db := newNodeDB(t, 2)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	c := dialStream(t, addr, ClientOptions{})

	const trace = "trace-abc123"
	_, _, err := collect(c, `for $i in`, trace, false)
	if err == nil {
		t.Fatal("malformed query succeeded")
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("error is %T (%v), want *NodeError", err, err)
	}
	if ne.TraceID != trace {
		t.Fatalf("NodeError trace = %q, want %q", ne.TraceID, trace)
	}
	if !strings.Contains(ne.Error(), trace) {
		t.Fatalf("error text lost the trace tag: %q", ne.Error())
	}
}
