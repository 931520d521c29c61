package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/fragmentation"
	"partix/internal/obs"
	"partix/internal/partix"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// runConfig is one invocation: a workload, a seed and how long to measure.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks the generated collections; 1 is the benchmark, the
	// smoke test runs at 1/50.
	scale float64
	// workDir holds the nodes' store files; outDir receives trace files.
	workDir string
	outDir  string
}

// templateRow is one query template's share of the timed loop.
type templateRow struct {
	Name           string  `json:"name"`
	Samples        int     `json:"samples"`
	TailPercentile float64 `json:"tail_percentile"`
}

// runResult is what one invocation reports.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Samples   int    `json:"samples"`
	// Templates gives, per query template, the timed loop's sample count
	// and the percentile query_p95_ms was taken at (untraced runs only).
	Templates []templateRow          `json:"templates,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Layers is the traced pass's per-span table (trace runs only).
	Layers []layerRow `json:"layers,omitempty"`
}

const (
	// untracedSetups is how many times an untraced run sets the
	// deployment up; setup_s is the median. Set-up is thousands of fsyncs,
	// the noisiest thing the benchmark times.
	untracedSetups = 5
	// writerRate is the open-loop writer's rate on horiz_small_rw.
	writerRate = 40.0
	// tracedOps bounds the traced pass's op sample.
	tracedOps = 200
	// materializeMode is the paper's FragMode2, which every workload uses:
	// each source document yields one document per fragment.
	materializeMode = fragmentation.FragModeSD
)

// setUp generates the collection, starts the nodes and publishes the
// fragments over TCP: everything setup_s covers.
func setUp(cfg runConfig, dir string) (*deployment, *xmltree.Collection, time.Duration, error) {
	start := time.Now()
	col := cfg.w.generate(cfg.seed, cfg.scale)
	d, err := deploy(dir, cfg.w.nodes)
	if err != nil {
		return nil, nil, 0, err
	}
	s := cfg.w.scheme()
	if err := d.sys.Publish(col, s, placement(s), partix.PublishOptions{Mode: materializeMode}); err != nil {
		d.close()
		return nil, nil, 0, fmt.Errorf("publish: %w", err)
	}
	return d, col, time.Since(start), nil
}

// setUpCentral publishes the unfragmented collection on one node: the
// correctness oracle and the ref.* baseline.
func setUpCentral(dir string, col *xmltree.Collection) (*deployment, error) {
	d, err := deploy(dir, 1)
	if err != nil {
		return nil, err
	}
	if err := d.sys.Publish(col, nil, map[string]string{"": "n0"}, partix.PublishOptions{}); err != nil {
		d.close()
		return nil, fmt.Errorf("publish centralized: %w", err)
	}
	return d, nil
}

// run executes one workload once and returns its metrics: the end-to-end
// ones without tracing, the per-layer ones with it.
func run(cfg runConfig, bf *benchmarkFile) (res *runResult, err error) {
	defs := bf.EndToEnd
	if cfg.trace {
		defs = bf.PerLayer
	}
	ms := newMetricSet(defs)
	res = &runResult{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace}

	setups := untracedSetups
	if cfg.trace {
		setups = 1
	}
	var d *deployment
	var col *xmltree.Collection
	var setupTimes []float64
	var setupBefore, setupAfter map[string]float64
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		setupBefore = obs.Default.Snapshot()
		var took time.Duration
		d, col, took, err = setUp(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("frag%d", i)))
		if err != nil {
			return nil, err
		}
		setupAfter = obs.Default.Snapshot()
		setupTimes = append(setupTimes, took.Seconds())
	}
	defer func() {
		if cerr := d.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	pin := pinOf(col)
	if err := checkPin(cfg.w.name, cfg.seed, cfg.scale, pin); err != nil {
		return nil, err
	}
	if err := d.checkpoint(); err != nil {
		return nil, err
	}
	fileBytes, err := d.fileBytes()
	if err != nil {
		return nil, err
	}

	central, err := setUpCentral(filepath.Join(cfg.workDir, "central"), col)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := central.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	texts, list := cfg.w.ops(rand.New(rand.NewSource(cfg.seed)), len(col.Docs))
	exp, wrong, err := oracle(d.sys, central.sys, texts)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(texts)
	res.Failed += wrong

	seconds := cfg.seconds
	if cfg.trace {
		// The traced run needs the timed loop only for its exact per-op
		// counts; the rest of its budget goes to the replayed spans.
		seconds /= 2
	}
	var writes []*xmltree.Document
	if cfg.w.writer {
		writes = writerDocs(cfg.seed, int(writerRate*seconds)+8)
	}
	tr := timedLoop(d, cfg.w.period, texts, list, exp, seconds, writes)
	res.Attempted += len(tr.samples) + tr.errors
	res.Failed += tr.failed
	res.Samples = len(tr.samples)
	if len(tr.samples) == 0 {
		return nil, fmt.Errorf("%s: the timed loop completed no query", cfg.w.name)
	}
	if tr.writer != nil {
		attempted, failed := verifyWrites(d.sys, tr.writer)
		res.Attempted += attempted
		res.Failed += failed
	}

	if !cfg.trace {
		ms.set("setup_s", median(setupTimes))
		ms.set("store_amplification", float64(fileBytes)/float64(pin.XMLBytes))
		res.Templates = tr.endToEnd(ms, cfg.w.templates)
	} else {
		tr.layerCounts(ms, len(cfg.w.templates))
		setupLayer(ms, setupBefore, setupAfter, tr, pin)
		ref := timedLoop(central, cfg.w.period, texts, list, exp, seconds/5, nil)
		res.Attempted += len(ref.samples) + ref.errors
		res.Failed += ref.failed
		refP50 := mixQuantile(ref.walls(len(cfg.w.templates)), at(0.5))
		ms.set("ref.central_p50_ms", refP50)
		ms.set("ref.speedup_x", refP50/mixQuantile(tr.walls(len(cfg.w.templates)), at(0.5)))

		tp := &tracePass{cfg: cfg, d: d, ms: ms, untraced: tr}
		if err := tp.run(texts, list, seconds); err != nil {
			return nil, err
		}
		res.Layers = tp.table()
		if err := tp.write(filepath.Join(cfg.outDir, "trace_"+cfg.w.name+".json")); err != nil {
			return nil, err
		}
		if err := probes(ms, d, col, cfg.w, texts); err != nil {
			return nil, err
		}
	}
	res.Metrics = ms.values
	return res, nil
}

// opSample is one completed query of the timed loop.
type opSample struct {
	tmpl int
	// at is when the answer arrived, since the loop's start.
	at                             time.Duration
	wall, first, compose, parallel time.Duration
	frags, skipped                 int
	slowestToMean                  float64
	answerBytes                    int
	items                          int
}

// timedRun is the outcome of one timed loop.
type timedRun struct {
	samples []opSample
	elapsed time.Duration
	// errors counts queries that returned an error, failed those plus the
	// ones with a wrong answer.
	errors, failed int
	before, after  map[string]float64
	mallocs        uint64
	liveHeap       uint64
	writer         *writerStats
}

// timedLoop drives the deployment with one closed-loop client for the
// given time: op i is list[i mod len(list)], sent when op i-1 has been
// answered and checked. It stops at the first multiple of period past the
// deadline, so every run has the same template mix. With writes, one
// open-loop writer stores them at writerRate beside it.
func timedLoop(d *deployment, period int, texts []queryText, list []int, exp []expectation, seconds float64, writes []*xmltree.Document) *timedRun {
	tr := &timedRun{samples: make([]opSample, 0, 1<<14)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if writes != nil {
		tr.writer = &writerStats{}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr.before = obs.Default.Snapshot()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	if writes != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.writer.run(d, writes, start, stop)
		}()
	}
	for i := 0; i%period != 0 || time.Now().Before(deadline); i++ {
		ti := list[i%len(list)]
		q := texts[ti]
		t0 := time.Now()
		r, err := d.sys.Query(q.text)
		wall := time.Since(t0)
		if err != nil {
			tr.errors++
			tr.failed++
			continue
		}
		var started int64
		if tr.writer != nil {
			started = tr.writer.started.Load()
		}
		if !exp[ti].matches(r.Items, started) {
			tr.failed++
		}
		s := opSample{
			tmpl: q.tmpl, at: time.Since(start), wall: wall, first: r.FirstItemLatency, compose: r.ComposeTime,
			parallel: r.ParallelTime, frags: len(r.Fragments), skipped: len(r.SkippedFragments),
			answerBytes: exp[ti].answerBytes, items: len(r.Items),
		}
		if s.first == 0 {
			// Not streamed (one sub-query) or empty: the answer arrives whole.
			s.first = wall
		}
		if n := len(r.Sub); n > 0 {
			var sum, max time.Duration
			for _, sub := range r.Sub {
				sum += sub.Elapsed
				if sub.Elapsed > max {
					max = sub.Elapsed
				}
			}
			if sum > 0 {
				s.slowestToMean = float64(max) * float64(n) / float64(sum)
			}
		}
		tr.samples = append(tr.samples, s)
	}
	tr.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	tr.after = obs.Default.Snapshot()
	runtime.ReadMemStats(&m1)
	tr.mallocs = m1.Mallocs - m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	tr.liveHeap = m1.HeapInuse
	return tr
}

// matches checks an answer against the oracle's. started is how many
// writes the writer had begun when the answer arrived: each may or may
// not be visible, so a count may exceed the baseline by up to that many.
func (e expectation) matches(items xquery.Seq, started int64) bool {
	if e.hasScalar {
		s, ok := scalarOf(items)
		if !ok {
			return false
		}
		if started == 0 {
			return s == e.scalar
		}
		got, err1 := strconv.ParseFloat(s, 64)
		want, err2 := strconv.ParseFloat(e.scalar, 64)
		return err1 == nil && err2 == nil && got >= want && got <= want+float64(started)
	}
	return len(items) >= e.items && len(items) <= e.items+int(started)
}

func wallMs(s opSample) float64 { return float64(s.wall) / 1e6 }

// walls returns the latencies of the loop's fastest stretches in
// milliseconds, per template.
func (tr *timedRun) walls(templates int) [][]float64 {
	pool, _ := tr.fastest()
	return perTemplate(pool, templates, wallMs)
}

func perTemplate(samples []opSample, templates int, f func(opSample) float64) [][]float64 {
	out := make([][]float64, templates)
	for _, s := range samples {
		out[s.tmpl] = append(out[s.tmpl], f(s))
	}
	return out
}

// The machine the benchmark runs on slows down for seconds at a time (a
// two-core VM's pure CPU loop varies by a factor of two), and that only
// ever makes a stretch of the run slower. So the medians and the
// throughput come from the fastest quarter of the run: the loop's time is
// cut into stretches, and the samples of the keptStretches that completed
// the most queries are pooled. The tail metric, query_p95_ms, does not: a
// stall the program causes itself (a GC burst, a checkpoint, a commit
// convoy) slows the stretch it hits just as the machine would, and
// dropping that stretch would hide it. It is taken over the whole loop.
const (
	stretches     = 20
	keptStretches = 5
)

// fastest returns the pooled samples of the fastest stretches and the
// time they cover. Runs too short to cut up are returned whole.
func (tr *timedRun) fastest() ([]opSample, time.Duration) {
	if len(tr.samples) < 4*stretches {
		return tr.samples, tr.elapsed
	}
	length := tr.elapsed / stretches
	cut := make([][]opSample, stretches)
	from := 0
	for k := range cut {
		to := from
		for to < len(tr.samples) && (k == stretches-1 || tr.samples[to].at <= time.Duration(k+1)*length) {
			to++
		}
		cut[k] = tr.samples[from:to]
		from = to
	}
	sort.SliceStable(cut, func(i, j int) bool { return len(cut[i]) > len(cut[j]) })
	var pool []opSample
	for _, c := range cut[:keptStretches] {
		pool = append(pool, c...)
	}
	return pool, keptStretches * length
}

// delta is the increase of an obs series across the loop.
func (tr *timedRun) delta(series string) float64 { return tr.after[series] - tr.before[series] }

// perOp is a series' increase per completed query.
func (tr *timedRun) perOp(series string) float64 {
	return tr.delta(series) / float64(len(tr.samples))
}

// endToEnd fills the metrics a user of the deployment would see. It
// returns the sample count behind the tail metric, template by template.
func (tr *timedRun) endToEnd(ms *metricSet, templates []string) []templateRow {
	pool, covered := tr.fastest()
	walls := tr.walls(len(templates))
	firsts := perTemplate(pool, len(templates), func(s opSample) float64 { return float64(s.first) / 1e6 })
	all := perTemplate(tr.samples, len(templates), wallMs)
	ms.set("query_p50_ms", mixQuantile(walls, at(0.5)))
	ms.set("query_p95_ms", mixQuantile(all, tailQuantile))
	ms.set("first_item_p50_ms", mixQuantile(firsts, at(0.5)))
	ms.set("queries_per_s", float64(len(pool))/covered.Seconds())
	ms.set("wire_bytes_per_query",
		tr.perOp("partix_wire_client_in_bytes_total")+tr.perOp("partix_wire_client_out_bytes_total"))
	ms.set("allocs_per_query", float64(tr.mallocs)/float64(len(tr.samples)))
	ms.set("live_heap_mb", float64(tr.liveHeap)/1e6)
	rows := make([]templateRow, len(templates))
	for t, name := range templates {
		rows[t] = templateRow{Name: name, Samples: len(all[t]), TailPercentile: tailQuantile(len(all[t])) * 100}
	}
	return rows
}

// writerStats is the open-loop writer's record.
type writerStats struct {
	// started counts writes sent; the timed loop reads it while the
	// writer runs. acked lists the documents the node acknowledged.
	started atomic.Int64
	acked   []int
	// latency is ack time minus due time, service is ack minus send, lag
	// is send minus due.
	latency, service, lag []time.Duration
	failed                int
	xmlBytes              int64
}

// run stores docs[k] at start + k/writerRate on the node owning its
// section's fragment, until stop closes or the documents run out.
func (ws *writerStats) run(d *deployment, docs []*xmltree.Document, start time.Time, stop <-chan struct{}) {
	meta := d.sys.Catalog().Lookup("items")
	for k, doc := range docs {
		due := start.Add(time.Duration(float64(k) / writerRate * float64(time.Second)))
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		f := fragmentOfSection(doc.Root.Child("Section").Text())
		fragment := meta.Scheme.Fragments[f].Name
		sent := time.Now()
		ws.started.Add(1)
		err := d.node(meta.Placement[fragment]).cli.StoreDocument(meta.NodeCollection(fragment), doc)
		done := time.Now()
		if err != nil {
			ws.failed++
			continue
		}
		ws.acked = append(ws.acked, k)
		ws.latency = append(ws.latency, done.Sub(due))
		ws.service = append(ws.service, done.Sub(sent))
		ws.lag = append(ws.lag, sent.Sub(due))
		ws.xmlBytes += int64(xmltree.SerializedSize(doc))
	}
}

// verifyWrites looks every acknowledged write up by its code; a write
// that failed or cannot be found is a failed operation.
func verifyWrites(sys *partix.System, ws *writerStats) (attempted, failed int) {
	// The writes went to the nodes behind the coordinator's back.
	sys.InvalidatePlans()
	failed = ws.failed
	for _, k := range ws.acked {
		r, err := sys.Query(fmt.Sprintf(hq2w, writerCode(k)))
		if err != nil || len(r.Items) != 1 {
			failed++
		}
	}
	return int(ws.started.Load()), failed
}

// newWorkDir creates a fresh directory for one run's store files under
// base and returns it with its cleanup.
func newWorkDir(base string) (string, func(), error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
