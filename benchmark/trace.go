package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"partix/internal/cluster"
	"partix/internal/partix"
	"partix/internal/storage"
	"partix/internal/wire"
	"partix/internal/xmltree"
	"partix/internal/xquery"
	"partix/internal/xquery/exec"
)

// span is one timed call into a layer. Spans of one op share its id;
// parent 0 marks the op's root. The root and the spans taken from the
// QueryResult (partix.plan, cluster.subqueries, partix.compose) belong to
// the real execution; every other span is a replay of that step through
// the layer's public function, run right after it on the idle deployment,
// so start and end are when the replay ran, not where the step sat inside
// the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracePass replays a fixed sample of the op list as nested spans.
type tracePass struct {
	cfg      runConfig
	d        *deployment
	ms       *metricSet
	untraced *timedRun

	t0    time.Time
	spans []span
	// byName collects every span's duration under its name, extra the
	// timings that are metrics but not spans.
	byName map[string][]time.Duration
	extra  map[string][]time.Duration
	// Per op: the root's wall, the blocking steps taken from the result
	// and the total replayed work.
	rootWall, blocking, work []time.Duration
	rootTmpl                 []int
}

func (tp *tracePass) add(op, parent int, name string, start time.Time, dur time.Duration) int {
	id := len(tp.spans) + 1
	tp.spans = append(tp.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(tp.t0)), End: int64(start.Sub(tp.t0) + dur),
	})
	tp.byName[name] = append(tp.byName[name], dur)
	return id
}

// timed runs fn as a span.
func (tp *tracePass) timed(op, parent int, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	dur := time.Since(start)
	return tp.add(op, parent, name, start, dur), dur
}

// sliceSource serves pre-decoded documents to the executor and the
// interpreter, so their time excludes page reads and decoding.
type sliceSource map[string][]*xmltree.Document

func (s sliceSource) Docs(name string, _ *xquery.Hint, fn func(*xmltree.Document) error) error {
	for _, d := range s[name] {
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

func (s sliceSource) Doc(name string) (*xmltree.Document, error) {
	return nil, fmt.Errorf("benchmark: no document %q", name)
}

// run traces ops from the head of the op list until tracedOps are done or
// the time budget is spent.
func (tp *tracePass) run(texts []queryText, list []int, seconds float64) error {
	tp.t0 = time.Now()
	tp.byName = map[string][]time.Duration{}
	tp.extra = map[string][]time.Duration{}
	deadline := tp.t0.Add(time.Duration(seconds * float64(time.Second)))
	// Every template is traced at least twice, however slow the workload.
	minOps := 2 * len(tp.cfg.w.templates)
	for op := 0; op < tracedOps && (op < minOps || time.Now().Before(deadline)); op++ {
		if err := tp.traceOp(op+1, texts[list[op%len(list)]]); err != nil {
			return fmt.Errorf("traced op %d: %w", op+1, err)
		}
	}
	tp.fill()
	return nil
}

func (tp *tracePass) traceOp(op int, q queryText) error {
	sys := tp.d.sys
	start := time.Now()
	res, err := sys.Query(q.text)
	wall := time.Since(start)
	if err != nil {
		return err
	}
	root := tp.add(op, 0, "query", start, wall)
	tp.rootWall = append(tp.rootWall, wall)
	tp.rootTmpl = append(tp.rootTmpl, q.tmpl)

	// The plan step is res.PlanTime: normalization and the cache lookup,
	// plus parse and planning when the plan was not cached.
	planSpan := tp.add(op, root, "partix.plan", start, res.PlanTime)
	tp.timed(op, planSpan, "xquery.normalize", func() { xquery.NormalizeQueryText(q.text) })
	var expr xquery.Expr
	parseStart := time.Now()
	expr, err = xquery.Parse(q.text)
	parseDur := time.Since(parseStart)
	if err != nil {
		return err
	}
	if res.PlanCached {
		tp.extra["xquery.parse"] = append(tp.extra["xquery.parse"], parseDur)
	} else {
		tp.add(op, planSpan, "xquery.parse", parseStart, parseDur)
	}
	planStart := time.Now()
	plan, err := sys.Explain(q.text)
	if err != nil {
		return err
	}
	if plan.Cached {
		tp.extra["partix.plan_cached"] = append(tp.extra["partix.plan_cached"], time.Since(planStart))
	}

	// What blocked the result between plan and composition: the slowest
	// site when sub-queries ran concurrently, every fetch in turn on the
	// reconstruction route.
	blocking := res.ParallelTime
	if res.Strategy == partix.StrategyReconstruct {
		blocking = 0
		for _, sub := range res.Sub {
			blocking += sub.Elapsed
		}
	}
	subSpan := tp.add(op, root, "cluster.subqueries", start.Add(res.PlanTime), blocking)
	composeSpan := tp.add(op, root, "partix.compose", start.Add(res.PlanTime+blocking), res.ComposeTime)
	tp.blocking = append(tp.blocking, res.PlanTime+blocking+res.ComposeTime)

	meta := sys.Catalog().Lookup(plan.Collections[0])
	work := res.PlanTime + res.ComposeTime
	var parts []*xmltree.Collection
	var slowest time.Duration
	for _, step := range plan.Steps {
		nd := tp.d.node(step.Node)
		if step.Query == "" {
			var part *xmltree.Collection
			_, dur := tp.timed(op, subSpan, "wire.fetch_collection", func() {
				part, err = nd.cli.FetchCollection(meta.NodeCollection(step.Fragment))
			})
			if err != nil {
				return err
			}
			parts = append(parts, part)
			work += dur
			continue
		}
		rtt, err := tp.traceSubQuery(op, subSpan, nd, step.Query)
		if err != nil {
			return err
		}
		work += rtt
		if rtt > slowest {
			slowest = rtt
		}
	}
	if slowest > 0 {
		tp.extra["partix.coord_overhead"] = append(tp.extra["partix.coord_overhead"], wall-slowest)
	}

	if len(parts) > 0 {
		// Between the fetches and the join the coordinator sizes every
		// fetched document by serializing it; neither Sub[i].Elapsed nor
		// ComposeTime covers that, so it is a blocking step of its own.
		_, dur := tp.timed(op, root, "xmltree.serialize", func() {
			for _, part := range parts {
				for _, doc := range part.Docs {
					xmltree.SerializedSize(doc)
				}
			}
		})
		tp.blocking[len(tp.blocking)-1] += dur
		work += dur
		var merged *xmltree.Collection
		tp.timed(op, composeSpan, "fragmentation.reconstruct_join", func() {
			merged, err = meta.Scheme.Reconstruct(parts)
		})
		if err != nil {
			return err
		}
		tp.timed(op, composeSpan, "xquery.interp_eval", func() {
			_, err = xquery.Eval(expr, sliceSource{meta.Name: merged.Docs})
		})
		if err != nil {
			return err
		}
	} else {
		// On the sub-query routes it sizes every partial result the same
		// way (cluster.SeqBytes) inside the sub-query's elapsed time.
		tp.timed(op, subSpan, "xmltree.serialize", func() { cluster.SeqBytes(res.Items) })
	}
	tp.work = append(tp.work, work)
	return nil
}

// traceSubQuery replays one shipped sub-query: once through the node's
// wire client, then step by step against the node's engine.
func (tp *tracePass) traceSubQuery(op, parent int, nd *node, text string) (time.Duration, error) {
	var err error
	sq, rtt := tp.timed(op, parent, "wire.subquery", func() {
		err = nd.cli.StreamQuery(text, func(xquery.Seq) error { return nil })
	})
	if err != nil {
		return 0, err
	}
	var answer xquery.Seq
	decodedBefore := nd.db.Stats().DocsDecoded
	eq, engineDur := tp.timed(op, sq, "engine.query", func() { answer, err = nd.db.Query(text) })
	if err != nil {
		return 0, err
	}
	scanned := nd.db.Stats().DocsDecoded > decodedBefore
	tp.extra["wire.overhead"] = append(tp.extra["wire.overhead"], rtt-engineDur)

	var expr xquery.Expr
	tp.timed(op, eq, "xquery.subquery_parse", func() { expr, err = xquery.Parse(text) })
	if err != nil {
		return 0, err
	}
	var prog *exec.Program
	var compiled bool
	tp.timed(op, eq, "exec.compile", func() { prog, compiled = exec.Compile(expr) })

	// Index-only answers (count and exists probes) decode nothing; there
	// is no scan to replay for them.
	if colls := xquery.CollectionNames(expr); scanned && len(colls) == 1 {
		coll := colls[0]
		var names []string
		scanStart := time.Now()
		err = nd.db.Docs(coll, xquery.ExtractHints(expr)[coll], func(d *xmltree.Document) error {
			names = append(names, d.Name)
			return nil
		})
		if err != nil {
			return 0, err
		}
		tp.extra["engine.docs_scan"] = append(tp.extra["engine.docs_scan"], time.Since(scanStart))

		raws := make([][]byte, len(names))
		tp.timed(op, eq, "storage.raw_read", func() {
			for i, name := range names {
				if raws[i], err = nd.db.Store().GetDocumentRaw(coll, name); err != nil {
					return
				}
			}
		})
		if err != nil {
			return 0, err
		}
		docs := make([]*xmltree.Document, len(names))
		tp.timed(op, eq, "storage.decode", func() {
			for i, raw := range raws {
				if docs[i], err = storage.DecodeDocument(names[i], raw); err != nil {
					return
				}
			}
		})
		if err != nil {
			return 0, err
		}
		if compiled {
			tp.timed(op, eq, "exec.run", func() { _, err = prog.Run(sliceSource{coll: docs}) })
			if err != nil {
				return 0, err
			}
		}
	}

	var wi []wire.Item
	tp.timed(op, sq, "wire.encode", func() { wi, err = wire.EncodeSeq(answer) })
	if err != nil {
		return 0, err
	}
	tp.timed(op, sq, "wire.decode", func() { _, err = wire.DecodeSeq(wi) })
	return rtt, err
}

// layerRow is one line of the per-layer table: a span name, how often it
// ran per traced op, its median duration and its self time (duration
// minus its child spans) summed per op.
type layerRow struct {
	Layer     string  `json:"layer"`
	CallsOp   float64 `json:"calls_per_op"`
	MedianUs  float64 `json:"median_us"`
	SelfUsOp  float64 `json:"self_us_per_op"`
	SelfShare float64 `json:"self_share"`
}

// selfTimes sums, per span name, each span's duration minus its
// children's (never below zero: replayed children of a concurrent step
// can add up to more than the step blocked for).
func (tp *tracePass) selfTimes() map[string]time.Duration {
	children := make([]int64, len(tp.spans)+1)
	for _, s := range tp.spans {
		children[s.Parent] += s.End - s.Start
	}
	self := map[string]time.Duration{}
	for _, s := range tp.spans {
		if own := (s.End - s.Start) - children[s.ID]; own > 0 {
			self[s.Name] += time.Duration(own)
		}
	}
	return self
}

func (tp *tracePass) table() []layerRow {
	ops := float64(len(tp.rootWall))
	self := tp.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	var rows []layerRow
	for name, durs := range tp.byName {
		rows = append(rows, layerRow{
			Layer:     name,
			CallsOp:   float64(len(durs)) / ops,
			MedianUs:  float64(medianDuration(durs)) / 1e3,
			SelfUsOp:  float64(self[name]) / 1e3 / ops,
			SelfShare: float64(self[name]) / float64(total),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUsOp > rows[j].SelfUsOp })
	return rows
}

func sumDurations(v []time.Duration) (sum time.Duration) {
	for _, d := range v {
		sum += d
	}
	return sum
}

// fill turns the pass into the `_us` layer metrics and the bench.*
// validity metrics.
func (tp *tracePass) fill() {
	spanMetrics := map[string]string{
		"xquery.normalize":               "xquery.normalize_us",
		"xquery.subquery_parse":          "xquery.subquery_parse_us",
		"xquery.interp_eval":             "xquery.interp_eval_us",
		"wire.subquery":                  "wire.subquery_rtt_us",
		"wire.encode":                    "wire.encode_us",
		"wire.decode":                    "wire.decode_us",
		"wire.fetch_collection":          "wire.fetch_collection_us",
		"engine.query":                   "engine.query_us",
		"exec.compile":                   "exec.compile_us",
		"exec.run":                       "exec.run_us",
		"storage.raw_read":               "storage.raw_read_us",
		"storage.decode":                 "storage.decode_us",
		"xmltree.serialize":              "xmltree.serialize_us",
		"fragmentation.reconstruct_join": "fragmentation.reconstruct_join_us",
	}
	for name, metric := range spanMetrics {
		tp.ms.setDuration(metric, medianDuration(tp.byName[name]))
	}
	parse := append(append([]time.Duration(nil), tp.byName["xquery.parse"]...), tp.extra["xquery.parse"]...)
	tp.ms.setDuration("xquery.parse_us", medianDuration(parse))
	tp.ms.setDuration("partix.plan_cached_us", medianDuration(tp.extra["partix.plan_cached"]))
	tp.ms.setDuration("partix.coord_overhead_us", medianDuration(tp.extra["partix.coord_overhead"]))
	tp.ms.setDuration("wire.overhead_us", medianDuration(tp.extra["wire.overhead"]))
	tp.ms.setDuration("engine.docs_scan_us", medianDuration(tp.extra["engine.docs_scan"]))

	wall := float64(sumDurations(tp.rootWall))
	tp.ms.set("bench.trace_coverage_ratio", float64(sumDurations(tp.blocking))/wall)
	tp.ms.set("bench.trace_work_to_wall_ratio", float64(sumDurations(tp.work))/wall)

	// Tracing happens outside the program, so the traced root is the same
	// call as an untraced op; what differs is that the replays ran between
	// the roots. The overhead compares the roots with the untraced loop's
	// latencies, template by template.
	templates := len(tp.cfg.w.templates)
	traced := make([][]float64, templates)
	for i, w := range tp.rootWall {
		traced[tp.rootTmpl[i]] = append(traced[tp.rootTmpl[i]], float64(w)/1e6)
	}
	untraced := tp.untraced.walls(templates)
	for t := range untraced {
		if len(traced[t]) == 0 {
			untraced[t] = nil
		}
	}
	// Weigh both sides by the traced sample's template mix.
	var tracedP50, untracedP50 float64
	for t := range traced {
		share := float64(len(traced[t])) / float64(len(tp.rootWall))
		tracedP50 += share * median(traced[t])
		untracedP50 += share * median(untraced[t])
	}
	tp.ms.set("bench.trace_overhead_pct", (tracedP50/untracedP50-1)*100)
}

// write stores the spans as JSON.
func (tp *tracePass) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{tp.cfg.w.name, tp.cfg.seed, tp.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerCounts fills the count metrics: exact per-op means of obs counter
// deltas across the timed loop, and what the QueryResults reported.
func (tr *timedRun) layerCounts(ms *metricSet, templates int) {
	n := float64(len(tr.samples))
	hits, misses := tr.delta("partix_coord_plan_cache_hits_total"), tr.delta("partix_coord_plan_cache_misses_total")
	ms.set("partix.plan_cache_hit_ratio", hits/(hits+misses))
	ms.set("partix.stats_fetches", tr.delta("partix_coord_stats_fetches_total"))
	var frags, skipped, items, answerBytes float64
	var ratios []float64
	for _, s := range tr.samples {
		frags += float64(s.frags)
		skipped += float64(s.skipped)
		items += float64(s.items)
		answerBytes += float64(s.answerBytes)
		if s.slowestToMean > 0 {
			ratios = append(ratios, s.slowestToMean)
		}
	}
	ms.set("partix.fragments_contacted_per_query", frags/n)
	ms.set("partix.fragments_skipped_per_query", skipped/n)
	ms.set("partix.compose_us", mixQuantile(perTemplate(tr.samples, templates, func(s opSample) float64 { return float64(s.compose) / 1e3 }), at(0.5)))
	ms.set("cluster.subqueries_per_query", tr.perOp("partix_cluster_subqueries_total"))
	ms.set("cluster.parallel_us", mixQuantile(perTemplate(tr.samples, templates, func(s opSample) float64 { return float64(s.parallel) / 1e3 }), at(0.5)))
	ms.set("cluster.slowest_to_mean_ratio", mean(ratios))

	in, out := tr.perOp("partix_wire_client_in_bytes_total"), tr.perOp("partix_wire_client_out_bytes_total")
	ms.set("wire.requests_per_query", tr.perOp("partix_wire_client_requests_total"))
	ms.set("wire.frames_per_query", tr.perOp("partix_wire_client_frames_total"))
	ms.set("wire.bytes_in_per_query", in)
	ms.set("wire.bytes_out_per_query", out)
	ms.set("wire.bytes_per_result_byte", (in+out)*n/answerBytes)
	ms.set("wire.retries", tr.delta("partix_wire_client_retries_total"))
	ms.set("wire.reconnects", tr.delta("partix_wire_client_reconnects_total"))

	decoded := tr.delta("partix_engine_docs_decoded_total")
	ms.set("engine.docs_decoded_per_query", decoded/n)
	ms.set("engine.docs_pruned_per_query", tr.perOp("partix_engine_docs_pruned_total"))
	ms.set("engine.index_only_per_query", tr.perOp("partix_engine_index_only_total"))
	ms.set("engine.decode_bytes_per_query", tr.perOp("partix_engine_decode_bytes_total"))
	ms.set("engine.decoded_per_result_item", decoded/items)
	ms.set("engine.compiled_ratio", tr.delta("partix_engine_compiled_queries_total")/tr.delta("partix_engine_queries_total"))
	ms.set("engine.snapshot_retries", tr.delta("partix_engine_snapshot_retries_total"))
	ms.set("storage.pages_read_per_query", tr.perOp("partix_storage_pages_read_total"))
	ms.set("storage.read_bytes_per_query", tr.perOp("partix_storage_read_bytes_total"))

	if w := tr.writer; w != nil && len(w.latency) > 0 {
		lat := sortedCopy(milliseconds(w.latency))
		ms.set("rw.write_p50_ms", quantile(lat, 0.5))
		ms.set("rw.write_p95_ms", quantile(lat, tailQuantile(len(lat))))
		ms.set("bench.writer_lag_p95_ms", quantile(sortedCopy(milliseconds(w.lag)), 0.95))
		ms.setDuration("wire.store_document_us", medianDuration(w.service))
	}
}

// setupLayer fills the write-path count metrics from the counter deltas
// across set-up (Publish stores every document through the WAL) plus, on
// the read-write workload, the writer's documents.
func setupLayer(ms *metricSet, before, after map[string]float64, tr *timedRun, pin inputPin) {
	delta := func(series string) float64 {
		return after[series] - before[series] + tr.delta(series)
	}
	userBytes := float64(pin.XMLBytes)
	writes := delta("partix_storage_wal_appends_total")
	if tr.writer != nil {
		userBytes += float64(tr.writer.xmlBytes)
	}
	ms.set("storage.wal_fsyncs_per_write", delta("partix_storage_wal_fsyncs_total")/writes)
	ms.set("storage.wal_bytes_per_user_byte", delta("partix_storage_wal_bytes_total")/userBytes)
	ms.set("storage.written_bytes_per_user_byte", delta("partix_storage_written_bytes_total")/userBytes)
	ms.set("storage.checkpoints", delta("partix_storage_checkpoints_total"))
}

// probes times the layer functions no query of the workload calls on its
// own: pings, cold plans, document encoding, direct and remote stores and
// the fragmentation operator. It runs last because it writes a scratch
// collection to node 0.
func probes(ms *metricSet, d *deployment, col *xmltree.Collection, w *workload, texts []queryText) error {
	n0 := d.nodes[0]
	var pings []time.Duration
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := n0.cli.Ping(); err != nil {
			return err
		}
		pings = append(pings, time.Since(start))
	}
	ms.setDuration("wire.rtt_ping_us", medianDuration(pings))

	// A cold plan: parse, fetch every fragment's statistics, plan.
	var cold []time.Duration
	for i := 0; i < len(texts) && i < 16; i++ {
		d.sys.InvalidatePlans()
		start := time.Now()
		if _, err := d.sys.Explain(texts[i].text); err != nil {
			return err
		}
		cold = append(cold, time.Since(start))
	}
	ms.setDuration("partix.plan_cold_us", medianDuration(cold))

	s := w.scheme()
	start := time.Now()
	frags, err := s.ApplyMode(col, materializeMode)
	if err != nil {
		return err
	}
	ms.set("fragmentation.apply_s", time.Since(start).Seconds())

	// Store probes use documents as the nodes hold them: fragment documents.
	sample := firstDocs(frags, 24)
	var enc, put, store []time.Duration
	for _, doc := range sample {
		start := time.Now()
		if _, err := storage.EncodeDocument(doc); err != nil {
			return err
		}
		enc = append(enc, time.Since(start))
	}
	ms.setDuration("storage.encode_us", medianDuration(enc))
	const scratch = "bench_probe"
	if err := n0.cli.CreateCollection(scratch); err != nil {
		return err
	}
	for i, doc := range sample {
		direct := &xmltree.Document{Name: fmt.Sprintf("direct%d", i), Root: doc.Root}
		start := time.Now()
		if err := n0.db.PutDocument(scratch, direct); err != nil {
			return err
		}
		put = append(put, time.Since(start))
		remote := &xmltree.Document{Name: fmt.Sprintf("remote%d", i), Root: doc.Root}
		start = time.Now()
		if err := n0.cli.StoreDocument(scratch, remote); err != nil {
			return err
		}
		store = append(store, time.Since(start))
	}
	ms.setDuration("engine.put_document_us", medianDuration(put))
	if !w.writer { // the read-write workload reports its writer's stores
		ms.setDuration("wire.store_document_us", medianDuration(store))
	}
	return nil
}

// firstDocs returns up to n documents, taken round-robin from the
// fragment collections so every fragment's shape is represented.
func firstDocs(frags []*xmltree.Collection, n int) []*xmltree.Document {
	var out []*xmltree.Document
	for i := 0; len(out) < n; i++ {
		added := false
		for _, f := range frags {
			if i < len(f.Docs) && len(out) < n {
				out = append(out, f.Docs[i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}
