#!/bin/sh
# verify.sh — the checks a change must pass before it lands:
# formatting, vet (the go vet gate below), build, the full test suite,
# and the race detector over the packages with real concurrency (snapshot
# reads against writers, WAL crash recovery, bounded sub-query execution,
# the coordinator's plan and statistics caches, wire transport and node
# admission, telemetry sinks).
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
# failover and the three node-shedding tests (shed = ErrOverloaded, shed
# primary fails over, back-to-back queries on a one-slot node never
# shed), repeated under the race detector; so are the
# statistics watches, whose reports arrive on goroutines of their own
# (writes visible without InvalidatePlans, a cut watch keeps every
# fragment, point queries beside a writer over TCP, a TCP watch reports
# writes, resubscribes after a loss and ends with Close, a LocalNode
# watch reports before the write returns), and the two plan-cache
# read/write differentials, the one test of stale cached plans under
# concurrent node-direct writes; the size-triggered checkpoint test,
# whose background checkpoint goroutine races live writers; and the
# prepared-query differential (TestPreparedQueriesDifferentialUnderWrites:
# sub-queries on a LocalNode and a TCP node share cached programs that
# are evicted mid-run while node-direct puts and deletes land). Under
# -race a stream's end poisons the read buffer its connection keeps
# (engine.Origins), so these differentials also fail on a record
# reference that escapes its stream (TestOriginsPoisonsHeldRecord, in
# the run above, checks the poison)
go test -race -count=3 -timeout 5m -run 'TestNonDecomposableShapesJoinEveryFragment|TestFetchStepsHonourInflightLimit|TestReconstructionFailover|TestMultiCollectionFetchFailsOverToReplica|TestSemiJoinMatchesCentralized|TestSemiJoinRoundTwoFailsOverToReplica|TestNodeOverloadIsErrOverloaded|TestOverloadedPrimaryFailsOverToReplica|TestOneSlotNodeServesBackToBackQueries|TestNodeWriteVisibleWithoutInvalidate|TestWatchDownKeepsEveryFragment|TestConcurrentWritesKeepPointQueriesRight|TestWatchReportsWrites|TestWatchResubscribesAfterLoss|TestWatchEndsWithClose|TestLocalNodeWatchIsSynchronous|TestPlanCacheRandomizedReadWriteDifferential|TestPlanCacheStatisticsSkippingDifferential|TestSizeTriggeredCheckpointKeepsAcknowledgedPuts|TestPreparedQueriesDifferentialUnderWrites' ./internal/partix/ ./internal/wire/ ./internal/storage/
# the benchmark is a nested module (partix/benchmark) that compiles
# against internal/ through a replace directive, so ./... above does not
# reach it: vet it and run its 5 s smoke test, or an internal/ signature
# change breaks the benchmark silently
(cd benchmark && go vet . && go test -timeout 5m .)

# cost-class gates, run without -race (which would inflate the alloc
# counts): the hot scan→filter→project loop, a string term over a large
# element (allocations and bytes per candidate independent of the
# subtree's size), the slab-building record decoder, a record on
# consecutive pages (one read call at 1 and at 20 pages, and one
# allocation for a record read into a buffer of its own), a repeated
# large-record scan on one Origins (bytes per query independent of the
# record's size after its first run: the connection keeps the read
# buffer), a projected decode
# (bytes walked and allocations independent of the subtrees it drops), a Docs scan per
# candidate, a point query's candidate selection (bytes per call
# independent of the collection's size), a count decided from its
# candidate list (no document decoded, bytes per query independent of
# the collection's size), small records sharing pages (store file bytes
# per Item within 1.25 times its encoded record at 300 and 3,000 Items),
# an indexed document (retained heap per small Item bounded at 300 and
# 3,000 Items: no per-document copy of its index entries),
# a reconstruction query (allocations independent of the nodes per
# fetched document), a
# semi-join's body fetch (bytes independent of the collection's size at a
# fixed answer), a query frame's codec and a batch decode (allocations per frame
# independent of its item count), framing stored nodes (allocations per
# frame independent of the returned subtrees' size, no tree encoded),
# shipping stored Items (node-side decode bytes per Item independent of
# the leaves the query does not read), receiving stored Items (client
# allocations and bytes per frame, and sizing per Item, independent of
# the Items' size: no tree built until a caller asks for a node) and the
# Node size the decoder's record ranges and shell bit must not grow, a
# fetch frame (allocations, node and receiver together, independent of
# its document count, whole and projected, in process and over TCP), a
# point sub-query on one in-process node (allocations and bytes per
# sub-query independent of the collection's size), a repeated point
# sub-query on a node with a flight recorder and a workload profiler
# (parsed once, a repeat at most 0.6 times its first run's allocations,
# observations as per-query analysis gives them), a non-numeric value's
# numeric test (no allocation), the wire's
# message-limit reader,
# serialization and its size count, a leaf's string value (no
# allocation), the coordinator's per-query
# telemetry (allocations independent of the fragment count), its
# plan-cache hit with revalidation (no allocations), a cold plan of a
# point query from cached statistics (allocations independent of the
# collection's size, membership check included) and a statistics
# snapshot (its membership filters within the per-snapshot byte budget
# at ten times the size)
go test -timeout 5m -run 'TestAllocsScanFilterProject|TestStringTermAllocsIndependentOfSubtreeSize' ./internal/xquery/exec/
go test -timeout 5m -run 'TestDecodeAllocs|TestDecodeBatchAllocs|TestProjectedDecodeIndependentOfDroppedSubtrees|TestSmallRecordsSharePages|TestContiguousChainIsOneRead' ./internal/storage/
go test -timeout 5m -run 'TestDocsAllocsPerCandidate|TestRepeatedScanOnOriginsAllocsIndependentOfRecordSize|TestRetainedHeapPerIndexedDocument|TestCandidateSelectionSizeIndependent|TestDeciderCostIndependentOfCollectionSize|TestReconstructAllocsIndependentOfDocumentSize|TestSemiJoinBytesIndependentOfCollectionSize|TestSerializeAllocs|TestSerializedSizeMatchesString|TestTextLeafAllocs|TestNodeSize|TestFrameCodecAllocsPerFrame|TestFramingStoredItemsCostsPerFrame|TestShippedSubtreesAreNotBuilt|TestReceivedNodesAreNotBuilt|TestFetchAllocsPerFrame|TestLocalPointQueryCostIndependentOfCollectionSize|TestRepeatedSubQueryIsPreparedOnce|TestParseNumberNonNumericAllocatesNothing|TestLimitReaderSmallMessagesAllocateNothing|TestTelemetryAllocsPerQuery|TestPlanCacheHitAllocs|TestColdPlanAllocsIndependentOfCollectionSize|TestStatisticsSnapshotBytesBounded' ./internal/engine/ ./internal/partix/ ./internal/xmltree/ ./internal/wire/ ./internal/obs/ ./internal/xquery/

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
