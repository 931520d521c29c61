// Command partixd runs one PartiX DBMS node: the sequential XML engine
// served over the wire protocol. A PartiX deployment is a set of partixd
// processes plus any client using the partix package (or the partix CLI)
// as coordinator.
//
// Usage:
//
//	partixd -addr :7001 -db node1.db
//
// With -debug-addr the node additionally serves an operational HTTP
// endpoint: Prometheus metrics on /metrics, liveness on /healthz (with
// WAL/checkpoint lag detail, and 503 past the -health-max-wal-bytes /
// -health-max-fsync-lag thresholds), the query flight recorder on
// /debug/queries, the mined workload profile on /debug/workload, a JSON
// metrics snapshot on /debug/vars and the Go profiler under
// /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":7001", "listen address")
		dbPath    = flag.String("db", "partixd.db", "path of the node's store file")
		noIndexes = flag.Bool("disable-indexes", false, "disable index-assisted candidate pruning")
		noFsync   = flag.Bool("wal-nofsync", false, "keep the WAL but skip fsync at commit (crash may lose the tail)")
		ckptBytes = flag.Int64("checkpoint-bytes", 0, "checkpoint when the WAL exceeds this size (0 = built-in default, <0 = only on demand)")
		idle      = flag.Duration("idle-timeout", 5*time.Minute, "close connections idle for this long (0 = never)")
		drain     = flag.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests")
		maxMsg    = flag.Int64("max-message-bytes", 0, "reject incoming messages larger than this (0 = built-in default)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/queries, /debug/workload, /debug/vars and /debug/pprof on this address (empty = off)")
		quiet     = flag.Bool("quiet", false, "suppress request logging")

		maxInflight = flag.Int("max-inflight", 0, "cap concurrently served query/fetch operations; excess is shed with an overloaded error (0 = unlimited)")

		recCap     = flag.Int("record-capacity", 0, "query flight recorder ring size (0 = built-in default)")
		recSample  = flag.Int("record-sample", 1, "record 1 in N ordinary queries (slow and errored queries are always recorded)")
		recSlow    = flag.Duration("record-slow", 100*time.Millisecond, "queries at or above this duration bypass sampling (0 = off)")
		maxWALLag  = flag.Int64("health-max-wal-bytes", 0, "report unhealthy once this many WAL bytes accumulated since the last checkpoint (0 = off)")
		maxSyncLag = flag.Duration("health-max-fsync-lag", 0, "report unhealthy once the WAL has unsynced commits older than this (0 = off)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "partixd ", log.LstdFlags)
	if *quiet {
		logger = nil
	}

	db, err := engine.Open(*dbPath, engine.Options{
		DisableIndexes:  *noIndexes,
		WALNoFsync:      *noFsync,
		CheckpointBytes: *ckptBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	recorder := obs.NewFlightRecorder(*recCap)
	recorder.SetSampleEvery(*recSample)
	recorder.SetSlowThreshold(*recSlow)
	profiler := obs.NewWorkloadProfiler(0)

	srv := wire.NewServerWith(db, logger, wire.ServerOptions{
		IdleTimeout:     *idle,
		DrainTimeout:    *drain,
		MaxMessageBytes: *maxMsg,
		Recorder:        recorder,
		Profiler:        profiler,
		MaxInflight:     *maxInflight,
	})

	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		health := func() error {
			// The engine answers a stats snapshot iff it is open and
			// serving — the same liveness a wire ping would establish.
			_ = db.Stats()
			ws := db.WALStatus()
			if *maxWALLag > 0 && ws.SizeBytes > *maxWALLag {
				return fmt.Errorf("wal: %d bytes since last checkpoint (limit %d)", ws.SizeBytes, *maxWALLag)
			}
			if *maxSyncLag > 0 && ws.SyncedSeq < ws.LastSeq && !ws.LastFsync.IsZero() {
				if lag := time.Since(ws.LastFsync); lag > *maxSyncLag {
					return fmt.Errorf("wal: unsynced commits for %s (limit %s)", lag.Round(time.Millisecond), *maxSyncLag)
				}
			}
			return nil
		}
		healthDetail := func() map[string]string {
			ws := db.WALStatus()
			detail := map[string]string{
				"wal_enabled":                "true",
				"wal_bytes_since_checkpoint": fmt.Sprintf("%d", ws.SizeBytes),
				"wal_last_seq":               fmt.Sprintf("%d", ws.LastSeq),
				"wal_synced_seq":             fmt.Sprintf("%d", ws.SyncedSeq),
				"wal_fsync_age_seconds":      "never",
			}
			if !ws.LastFsync.IsZero() {
				detail["wal_fsync_age_seconds"] = fmt.Sprintf("%.3f", time.Since(ws.LastFsync).Seconds())
			}
			return detail
		}
		workload := func() *obs.WorkloadProfile {
			// The profiler mined paths/predicates from served queries; the
			// engine's heat counters carry the decode/latency side. Merged
			// they are this node's complete local profile.
			prof := profiler.Profile()
			prof.Fragments = obs.MergeHeat(append(prof.Fragments, db.FragmentHeat()...))
			return prof
		}
		handler := obs.HandlerWith(obs.Default, obs.DebugOptions{
			Health:       health,
			HealthDetail: healthDetail,
			Recorder:     recorder,
			Workload:     workload,
		})
		go func() {
			if err := http.Serve(dl, handler); err != nil && logger != nil {
				logger.Printf("debug endpoint: %v", err)
			}
		}()
		if logger != nil {
			logger.Printf("debug endpoint on http://%s/metrics", dl.Addr())
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		srv.Close()
	}()

	if logger != nil {
		logger.Printf("serving %s on %s", *dbPath, l.Addr())
	}
	if err := srv.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := db.Sync(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
