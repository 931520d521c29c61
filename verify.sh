#!/bin/sh
# verify.sh — the checks a change must pass before it lands:
# formatting, vet (the go vet gate below), build, the full test suite,
# and the race detector over the packages with real concurrency (snapshot
# reads against writers, bounded sub-query execution, coordinator, wire
# transport, telemetry sinks). Test runs carry a timeout so a hung network test
# fails fast instead of wedging CI.
set -eux

unformatted="$(gofmt -l .)"
test -z "$unformatted"

go vet ./...
go build ./...
go test -timeout 5m ./...
go test -race -timeout 5m ./internal/obs/... ./internal/storage/... ./internal/engine/... ./internal/xquery/... ./internal/cluster/... ./internal/partix/... ./internal/wire/...
# crash-recovery gate: the WAL kill-point fuzz (recovery at every
# truncation offset) and the engine's commit-order/snapshot-isolation
# tests must hold under the race detector
go test -race -timeout 5m -run 'TestWALKillPointFuzz|TestCrashRecoveryWithoutSync' ./internal/storage/
go test -race -timeout 5m -run 'TestConcurrentSameDocPutCommitOrder|TestQuerySnapshotIsolation|TestMixedReadWriteConcurrency' ./internal/engine/
# mixed read/write panel under the race detector: snapshot reads
# against a concurrent writer pool
go test -race -timeout 5m -run TestRunMixedRWShape ./internal/experiments/
# the benchmark is a nested module (partix/benchmark) that compiles
# against internal/ through a replace directive, so ./... above does not
# reach it: vet it and run its 5 s smoke test, or an internal/ signature
# change breaks the benchmark silently
(cd benchmark && go vet . && go test -timeout 5m .)
# the committed BENCH_*.json files must keep decoding: fail on golden
# report schema drift
go test -timeout 5m -run TestReportGoldenRoundTrip ./internal/experiments/

# value-index smoke bench: the range sweep and the index-only deciders
# must hold at a reduced scale, and the JSON report must carry the
# valueindex section
benchdir="$(mktemp -d)"
go build -o "$benchdir/partix-bench" ./cmd/partix-bench
"$benchdir/partix-bench" -exp valueindex -repeats 1 -json "$benchdir/vidx.json" >/dev/null
grep -q '"valueindex"' "$benchdir/vidx.json"
grep -q '"countIndexOnly": true' "$benchdir/vidx.json"
grep -q '"existsIndexOnly": true' "$benchdir/vidx.json"

# planner smoke bench: the statistics must prove 3 of 4 fragments empty
# and a plan-cache hit must resolve faster than a cold parse+plan
"$benchdir/partix-bench" -exp planner -repeats 1 -json "$benchdir/planner.json" >/dev/null
grep -q '"planner"' "$benchdir/planner.json"
grep -q '"skippedFragments": 3' "$benchdir/planner.json"
grep -q '"cachedPlanFaster": true' "$benchdir/planner.json"

# mixed read/write smoke bench: all five sides must report read
# percentiles and the JSON report must carry the mixedrw section
"$benchdir/partix-bench" -exp mixedrw -repeats 1 -json "$benchdir/mixedrw.json" >/dev/null
grep -q '"mixedrw"' "$benchdir/mixedrw.json"
grep -q '"lockCoupled": true' "$benchdir/mixedrw.json"
grep -q '"durableWAL": true' "$benchdir/mixedrw.json"

# telemetry gates under the race detector: the flight recorder's
# lock-free ring under concurrent writers/readers, tail sampling
# retention of every slow/errored query at a 1-in-100 rate, the
# profiler's concurrent sketch/heat updates, the wire telemetry pull and
# error-frame tag, and the system-level toggle/aggregation tests
go test -race -timeout 5m -run 'TestRecorder|TestProfiler|TestMergeHeat|TestPrometheus' ./internal/obs/
go test -race -timeout 5m -run 'TestTelemetry|TestTaggedStream' ./internal/wire/
go test -race -timeout 5m -run 'TestWorkloadProfileMatchesRouting|TestRecorderCapturesQueries|TestClusterTelemetry|TestSetTelemetry' ./internal/partix/

# telemetry smoke bench: the directly-timed recorder+profiler cost must
# stay within the 2% budget against the Fig 7(a) ablated baseline, and
# the mined workload profile must match the planner's actual routing
"$benchdir/partix-bench" -exp telemetry -repeats 1 -json "$benchdir/telemetry.json" >/dev/null
grep -q '"telemetry"' "$benchdir/telemetry.json"
grep -q '"withinBudget": true' "$benchdir/telemetry.json"
grep -q '"profileMatches": true' "$benchdir/telemetry.json"

# compiled-executor gates: the randomized differential tests (each query
# also run over records decoded under its projection) must hold under the
# race detector, and the allocation pins for the hot scan→filter→project
# loop, for the slab-building record decoder, for a Docs scan (a record
# read plus a decode per candidate, nothing more), for a point query's
# candidate selection (bytes per call independent of the collection's
# size), for a reconstruction query (allocations independent of the
# nodes per fetched document), for a query frame's codec and a batch
# decode (allocations per frame independent of its item count), for the
# wire's message-limit reader and for serialization and its size count
# must not regress (run without -race, which would inflate the alloc
# counts)
go test -race -timeout 5m -run 'TestDifferential' ./internal/xquery/exec/
go test -timeout 5m -run TestAllocsScanFilterProject ./internal/xquery/exec/
go test -timeout 5m -run 'TestDecodeAllocs|TestDecodeBatchAllocs' ./internal/storage/
go test -timeout 5m -run 'TestDocsAllocsPerCandidate|TestCandidateSelectionSizeIndependent|TestReconstructAllocsIndependentOfDocumentSize|TestSerializeAllocs|TestSerializedSizeMatchesString|TestFrameCodecAllocsPerFrame|TestLimitReaderSmallMessagesAllocateNothing' ./internal/engine/ ./internal/partix/ ./internal/xmltree/ ./internal/wire/

# executor smoke bench: compiled and interpreted executors must agree
# on the Figure 7(a) workload (RunExec fails on any mismatch) and the
# JSON report must carry the exec section
"$benchdir/partix-bench" -exp exec -repeats 1 -json "$benchdir/exec.json" >/dev/null
grep -q '"exec"' "$benchdir/exec.json"

# result-cache gates under the race detector: the randomized read/write
# differential (cache-served == fresh execution, zero stale, sequential
# and concurrent sub-queries), the singleflight dogpile, the over-cap
# memory guarantee, and the admission/tenant shedding paths on both the
# coordinator and the wire
go test -race -timeout 5m -run 'TestResultCache|TestDeciderQueriesBypassResultCache|TestAdmission|TestTenantQuota|TestCacheHitBypassesAdmission|TestPublishClearsResultCache' ./internal/partix/
go test -race -timeout 5m -run 'TestServerTenantQuota|TestServerMaxInflight|TestNodeErrorOverloaded' ./internal/wire/

# result-cache smoke bench: a cache hit must beat cold distributed
# execution by the 20x floor, the concurrent-writer differential must
# serve zero stale results, and every overload rejection must be typed
"$benchdir/partix-bench" -exp resultcache -repeats 1 -json "$benchdir/resultcache.json" >/dev/null
grep -q '"resultcache"' "$benchdir/resultcache.json"
grep -q '"hitFasterThanCold": true' "$benchdir/resultcache.json"
grep -q '"staleServed": 0' "$benchdir/resultcache.json"
grep -q '"shedTyped": true' "$benchdir/resultcache.json"
rm -rf "$benchdir"

# observability smoke test: a node started with -debug-addr must serve
# valid Prometheus text carrying series from every instrumented layer,
# answer /healthz, and expose the JSON snapshot.
smokedir="$(mktemp -d)"
trap 'kill $partixd_pid 2>/dev/null || true; rm -rf "$smokedir"' EXIT
go build -o "$smokedir/partixd" ./cmd/partixd
"$smokedir/partixd" -addr 127.0.0.1:7481 -db "$smokedir/smoke.db" -debug-addr 127.0.0.1:8481 -quiet &
partixd_pid=$!
for i in $(seq 1 50); do
  if curl -sf http://127.0.0.1:8481/healthz >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -sf http://127.0.0.1:8481/healthz | grep -q '^ok$'
metrics="$(curl -sf http://127.0.0.1:8481/metrics)"
for series in \
  partix_engine_queries_total \
  partix_storage_pages_read_total \
  partix_wire_server_requests_total \
  partix_cluster_subqueries_total \
  partix_coord_queries_total \
  partix_engine_query_seconds_bucket; do
  echo "$metrics" | grep -q "$series"
done
curl -sf http://127.0.0.1:8481/debug/vars | grep -q partix_engine_queries_total
# telemetry endpoints: the flight-recorder dump must answer (empty ring
# serves valid JSON) and the workload profile must carry its version
curl -sf http://127.0.0.1:8481/debug/queries >/dev/null
curl -sf http://127.0.0.1:8481/debug/workload | grep -q '"version"'
# healthz detail: WAL/checkpoint lag must be reported after the ok line
curl -sf http://127.0.0.1:8481/healthz | grep -q '^wal_enabled true$'
kill $partixd_pid
