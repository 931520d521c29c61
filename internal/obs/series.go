package obs

// Every partix_* series lives here, on the Default registry, rather
// than scattered next to its instrumentation site. That keeps the full
// metric surface in one reviewable table (mirrored in DESIGN.md §6)
// and — because importing any instrumented layer links this file — a
// partixd node exposes the complete series set on /metrics even for
// layers it never exercises (cluster series idle at zero on a pure
// node, coordinator series idle on a node, and so on).
var (
	// engine: the sequential read-and-decode hot path.
	EngineQueries = Default.NewCounter("partix_engine_queries_total",
		"Queries evaluated by the local engine.")
	EngineDocsDecoded = Default.NewCounter("partix_engine_docs_decoded_total",
		"Documents decoded from storage during queries.")
	EngineDocsPruned = Default.NewCounter("partix_engine_docs_pruned_total",
		"Documents skipped by index-assisted candidate pruning.")
	EngineRangePruned = Default.NewCounter("partix_engine_range_pruned_total",
		"Documents eliminated by value-index (equality/range) constraints.")
	EngineIndexOnly = Default.NewCounter("partix_engine_index_only_total",
		"count()/exists()/empty() folds decided from an exact index candidate list, decoding no document.")
	EngineBytesDecoded = Default.NewCounter("partix_engine_decode_bytes_total",
		"Stored record bytes the decoder walked; the subtrees a projected decode skips are not counted.")
	EngineSnapshotRetries = Default.NewCounter("partix_engine_snapshot_retries_total",
		"Query snapshot captures retried because a writer committed mid-capture.")
	EngineCompiledQueries = Default.NewCounter("partix_engine_compiled_queries_total",
		"Queries executed by the compiled vectorized pipeline (the rest interpret).")
	EngineQuerySeconds = Default.NewHistogram("partix_engine_query_seconds",
		"Local engine query latency in seconds.",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})

	// storage: the paged single-file store.
	StoragePagesRead = Default.NewCounter("partix_storage_pages_read_total",
		"Pages read from the store file.")
	StoragePagesWritten = Default.NewCounter("partix_storage_pages_written_total",
		"Pages written to the store file.")
	StorageBytesRead = Default.NewCounter("partix_storage_read_bytes_total",
		"Bytes read from the store file.")
	StorageBytesWritten = Default.NewCounter("partix_storage_written_bytes_total",
		"Bytes written to the store file.")
	StorageWALAppends = Default.NewCounter("partix_storage_wal_appends_total",
		"Records appended to the write-ahead log.")
	StorageWALBytes = Default.NewCounter("partix_storage_wal_bytes_total",
		"Bytes appended to the write-ahead log (framing included).")
	StorageWALFsyncs = Default.NewCounter("partix_storage_wal_fsyncs_total",
		"Write-ahead log fsyncs (group commits batch many commits per fsync).")
	StorageWALGroupSize = Default.NewHistogram("partix_storage_wal_group_size",
		"Commits made durable per WAL fsync (group-commit batch size).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	StorageWALReplayed = Default.NewCounter("partix_storage_wal_replayed_total",
		"Write-ahead log records replayed during crash recovery at open.")
	StorageCheckpoints = Default.NewCounter("partix_storage_checkpoints_total",
		"Catalog checkpoints (persist catalog, truncate WAL, recycle pages).")

	// wire client: coordinator-side remote-node transport.
	WireClientRequests = Default.NewCounter("partix_wire_client_requests_total",
		"Requests sent to remote nodes.")
	WireClientRetries = Default.NewCounter("partix_wire_client_retries_total",
		"Request attempts retried after a transport error.")
	WireClientReconnects = Default.NewCounter("partix_wire_client_reconnects_total",
		"New connections dialed to remote nodes.")
	WireClientFrames = Default.NewCounter("partix_wire_client_frames_total",
		"Streamed result frames received.")
	WireClientBytesIn = Default.NewCounter("partix_wire_client_in_bytes_total",
		"Bytes received from remote nodes.")
	WireClientBytesOut = Default.NewCounter("partix_wire_client_out_bytes_total",
		"Bytes sent to remote nodes.")
	WireClientInflight = Default.NewGauge("partix_wire_client_inflight",
		"Remote-node requests currently in flight.")

	// wire server: node-side transport.
	WireServerRequests = Default.NewCounter("partix_wire_server_requests_total",
		"Requests handled by the node server.")
	WireServerFrames = Default.NewCounter("partix_wire_server_frames_total",
		"Streamed result frames sent.")
	WireServerBytesIn = Default.NewCounter("partix_wire_server_in_bytes_total",
		"Bytes received from clients.")
	WireServerBytesOut = Default.NewCounter("partix_wire_server_out_bytes_total",
		"Bytes sent to clients.")
	WireServerPanics = Default.NewCounter("partix_wire_server_panics_total",
		"Request handlers recovered from a panic.")
	WireServerConns = Default.NewGauge("partix_wire_server_conns",
		"Open client connections.")

	// cluster: sub-query fan-out and failover.
	ClusterSubQueries = Default.NewCounter("partix_cluster_subqueries_total",
		"Sub-queries dispatched to nodes (including local).")
	ClusterFailovers = Default.NewCounter("partix_cluster_failovers_total",
		"Sub-queries that fell over to a replica after a node error.")
	ClusterStreamCancels = Default.NewCounter("partix_cluster_stream_cancels_total",
		"Streamed sub-queries cancelled early by the sink.")

	// coordinator: the partix.System query path.
	CoordQueries = Default.NewCounter("partix_coord_queries_total",
		"Queries executed by the coordinator.")
	CoordSlowQueries = Default.NewCounter("partix_coord_slow_queries_total",
		"Coordinator queries that exceeded the slow-query threshold.")
	CoordQuerySeconds = Default.NewHistogram("partix_coord_query_seconds",
		"End-to-end coordinator query latency in seconds.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30})

	// planner: cost-based planning and the plan cache.
	CoordPlanCacheHits = Default.NewCounter("partix_coord_plan_cache_hits_total",
		"Queries answered with a cached plan (parse and planning skipped).")
	CoordPlanCacheMisses = Default.NewCounter("partix_coord_plan_cache_misses_total",
		"Queries that had to be parsed and planned.")
	CoordPlanCacheEvictions = Default.NewCounter("partix_coord_plan_cache_evictions_total",
		"Cached plans evicted by the LRU capacity cap.")
	CoordPlanCacheInvalidations = Default.NewCounter("partix_coord_plan_cache_invalidations_total",
		"Cached plans discarded as stale (catalog or generation change).")
	EnginePrepareHits = Default.NewCounter("partix_engine_prepare_cache_hits_total",
		"Node sub-query, fetch-filter and projection texts found prepared (parse and compile skipped).")
	EnginePrepareMisses = Default.NewCounter("partix_engine_prepare_cache_misses_total",
		"Node sub-query, fetch-filter and projection texts that had to be parsed and compiled.")
	EnginePrepareEvictions = Default.NewCounter("partix_engine_prepare_cache_evictions_total",
		"Prepared texts evicted by the LRU capacity cap.")
	CoordFragmentsSkipped = Default.NewCounter("partix_coord_fragments_skipped_total",
		"Fragments proven empty by statistics and skipped by the planner.")
	CoordStatsFetches = Default.NewCounter("partix_coord_stats_fetches_total",
		"Fragment statistics fetches issued to nodes (statistics-cache misses).")

	// telemetry: the flight recorder, workload profiler, and
	// cluster-wide aggregation pulls.
	TelemetryRecords = Default.NewCounter("partix_telemetry_records_total",
		"Query records published into the flight recorder.")
	TelemetrySampledOut = Default.NewCounter("partix_telemetry_sampled_out_total",
		"Ordinary queries dropped by the recorder's tail sampling.")
	TelemetryPulls = Default.NewCounter("partix_telemetry_pulls_total",
		"Node telemetry snapshots pulled during cluster-wide aggregation.")
	TelemetryPullErrors = Default.NewCounter("partix_telemetry_pull_errors_total",
		"Node telemetry pulls that failed.")
)
