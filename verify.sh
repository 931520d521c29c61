#!/bin/sh
# verify.sh — the checks a change must pass before it lands:
# formatting, vet (the go vet gate below), build, the full test suite,
# and the race detector over the packages with real concurrency (snapshot
# reads against writers, WAL crash recovery, bounded sub-query execution,
# coordinator caches, wire transport and node admission, telemetry
# sinks).
# Test runs carry a timeout so a hung network test fails fast instead of
# wedging CI.
set -eux

unformatted="$(gofmt -l .)"
test -z "$unformatted"

go vet ./...
go build ./...
go test -timeout 5m ./...
go test -race -timeout 5m ./internal/obs/... ./internal/storage/... ./internal/engine/... ./internal/xquery/... ./internal/cluster/... ./internal/partix/... ./internal/wire/...
# a plan's fetches run on goroutines like its sub-queries: the
# composition shape table, the fetch in-flight limit, the two fetch
# failover tests, the semi-join differential, the semi-join round-2
# failover and the two node-shedding tests (shed = ErrOverloaded, shed
# primary fails over), repeated under the race detector
go test -race -count=3 -timeout 5m -run 'TestNonDecomposableShapesJoinEveryFragment|TestFetchStepsHonourInflightLimit|TestReconstructionFailover|TestMultiCollectionFetchFailsOverToReplica|TestSemiJoinMatchesCentralized|TestSemiJoinRoundTwoFailsOverToReplica|TestNodeOverloadIsErrOverloaded|TestOverloadedPrimaryFailsOverToReplica' ./internal/partix/
# the benchmark is a nested module (partix/benchmark) that compiles
# against internal/ through a replace directive, so ./... above does not
# reach it: vet it and run its 5 s smoke test, or an internal/ signature
# change breaks the benchmark silently
(cd benchmark && go vet . && go test -timeout 5m .)

# cost-class gates, run without -race (which would inflate the alloc
# counts): the hot scan→filter→project loop, a string term over a large
# element (allocations and bytes per candidate independent of the
# subtree's size), the slab-building record decoder, a projected decode
# (bytes walked and allocations independent of the subtrees it drops), a Docs scan per
# candidate, a point query's candidate selection (bytes per call
# independent of the collection's size), a reconstruction
# query (allocations independent of the nodes per fetched document), a
# semi-join's body fetch (bytes independent of the collection's size at a
# fixed answer), a query frame's codec and a batch decode (allocations per frame
# independent of its item count), framing stored nodes (allocations per
# frame independent of the returned subtrees' size, no tree encoded),
# shipping stored Items (node-side decode bytes per Item independent of
# the leaves the query does not read), receiving stored Items (client
# allocations and bytes per frame, and sizing per Item, independent of
# the Items' size: no tree built until a caller asks for a node) and the
# Node size the decoder's record ranges and shell bit must not grow, the wire's
# message-limit reader,
# serialization and its size count, a leaf's string value (no
# allocation), the coordinator's per-query
# telemetry (allocations independent of the fragment count) and its
# plan-cache hit with revalidation (no allocations)
go test -timeout 5m -run 'TestAllocsScanFilterProject|TestStringTermAllocsIndependentOfSubtreeSize' ./internal/xquery/exec/
go test -timeout 5m -run 'TestDecodeAllocs|TestDecodeBatchAllocs|TestProjectedDecodeIndependentOfDroppedSubtrees' ./internal/storage/
go test -timeout 5m -run 'TestDocsAllocsPerCandidate|TestCandidateSelectionSizeIndependent|TestReconstructAllocsIndependentOfDocumentSize|TestSemiJoinBytesIndependentOfCollectionSize|TestSerializeAllocs|TestSerializedSizeMatchesString|TestTextLeafAllocs|TestNodeSize|TestFrameCodecAllocsPerFrame|TestFramingStoredItemsCostsPerFrame|TestShippedSubtreesAreNotBuilt|TestReceivedNodesAreNotBuilt|TestLimitReaderSmallMessagesAllocateNothing|TestTelemetryAllocsPerQuery|TestPlanCacheHitAllocs' ./internal/engine/ ./internal/partix/ ./internal/xmltree/ ./internal/wire/ ./internal/obs/

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
