package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"partix/internal/engine"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xquery"
)

// ExecCompare quantifies the compiled vectorized executor against the
// tree-walking interpreter on one node: the Figure 7(a) horizontal
// workload timed on two otherwise identical engines (the only difference
// is DisableCompiledExec), plus a streaming panel that scales the result
// size 10x and contrasts peak live heap of a materialized evaluation
// against the chunked StreamQueryExpr path.
type ExecCompare struct {
	Docs    int               `json:"docs"`
	Repeats int               `json:"repeats"`
	Queries []ExecQueryPoint  `json:"queries"`
	Stream  []ExecStreamPoint `json:"stream"`

	// MeanSpeedup / MeanAllocRatio average interpreted-over-compiled
	// response time and allocations across the compiled queries.
	MeanSpeedup    float64 `json:"meanSpeedup"`
	MeanAllocRatio float64 `json:"meanAllocRatio"`
}

// ExecQueryPoint is one workload query measured on both executors.
type ExecQueryPoint struct {
	ID          string   `json:"id"`
	Query       string   `json:"query"`
	Items       int      `json:"items"`
	Compiled    ExecSide `json:"compiled"`
	Interpreted ExecSide `json:"interpreted"`
	// Speedup is interpreted over compiled response time; AllocRatio the
	// same for allocations per execution.
	Speedup    float64 `json:"speedup"`
	AllocRatio float64 `json:"allocRatio"`
}

// ExecSide is one executor's averaged measurement of one query.
type ExecSide struct {
	ResponseNs      int64  `json:"responseNs"`
	AllocsPerOp     uint64 `json:"allocsPerOp"`
	AllocBytesPerOp uint64 `json:"allocBytesPerOp"`
}

// ExecStreamPoint is one result-size level of the streaming panel: the
// same full-collection query answered by materializing the sequence
// versus streaming it through StreamQueryExpr and discarding each chunk.
// Both numbers are live heap over the pre-query baseline, measured after
// a forced collection so GC pacing noise cancels out: materialized with
// the full result pinned, streamed as the maximum across chunk
// boundaries. A bounded executor keeps StreamedPeakHeap near-flat while
// MaterializedPeakHeap grows with the result.
type ExecStreamPoint struct {
	Docs                 int    `json:"docs"`
	Items                int    `json:"items"`
	MaterializedPeakHeap uint64 `json:"materializedPeakHeapBytes"`
	StreamedPeakHeap     uint64 `json:"streamedPeakHeapBytes"`
}

// RunExec measures the compiled-executor comparison on direct engine
// handles (no wire protocol, no fragmentation), so the delta isolates
// query execution itself.
func RunExec(scale Scale, opts Options) (*ExecCompare, error) {
	opts = opts.withDefaults()
	docs := scale.SmallItems

	dir, rmDir, err := opts.workDir("exec")
	if err != nil {
		return nil, err
	}
	defer rmDir()

	// The timed loop includes each candidate's decode, as every query on
	// the serving path does: the compiled side decodes under its
	// projection, the interpreter decodes whole documents.
	open := func(name string, interpret bool) (*engine.DB, error) {
		return engine.Open(filepath.Join(dir, name+".db"), engine.Options{
			DisableIndexes:      opts.DisableIndexes,
			DisableValueIndex:   opts.DisableValueIndex,
			DisableCompiledExec: interpret,
		})
	}
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: docs, Seed: scale.Seed})
	compiled, err := open("exec-on", false)
	if err != nil {
		return nil, err
	}
	defer compiled.Close()
	interp, err := open("exec-off", true)
	if err != nil {
		return nil, err
	}
	defer interp.Close()
	if err := compiled.LoadCollection(items.Clone()); err != nil {
		return nil, err
	}
	if err := interp.LoadCollection(items.Clone()); err != nil {
		return nil, err
	}

	cmp := &ExecCompare{Docs: docs, Repeats: opts.Repeats}
	var sumSpeedup, sumAllocRatio float64
	compiledQueries := 0
	for _, q := range workload.Horizontal("items") {
		point := ExecQueryPoint{ID: q.ID, Query: q.Text}
		// Warm both engines and check the two executors agree before
		// timing anything.
		want, err := interp.Query(q.Text)
		if err != nil {
			return nil, fmt.Errorf("%s (interpreter): %w", q.ID, err)
		}
		got, err := compiled.Query(q.Text)
		if err != nil {
			return nil, fmt.Errorf("%s (compiled): %w", q.ID, err)
		}
		if err := sameItems(want, got); err != nil {
			return nil, fmt.Errorf("%s: executors disagree: %w", q.ID, err)
		}
		point.Items = len(got)
		if point.Compiled, err = measureExecSide(compiled, q.Text, opts.Repeats); err != nil {
			return nil, err
		}
		if point.Interpreted, err = measureExecSide(interp, q.Text, opts.Repeats); err != nil {
			return nil, err
		}
		if point.Compiled.ResponseNs > 0 {
			point.Speedup = float64(point.Interpreted.ResponseNs) / float64(point.Compiled.ResponseNs)
		}
		if point.Compiled.AllocsPerOp > 0 {
			point.AllocRatio = float64(point.Interpreted.AllocsPerOp) / float64(point.Compiled.AllocsPerOp)
		}
		sumSpeedup += point.Speedup
		sumAllocRatio += point.AllocRatio
		compiledQueries++
		cmp.Queries = append(cmp.Queries, point)
	}
	if compiledQueries > 0 {
		cmp.MeanSpeedup = sumSpeedup / float64(compiledQueries)
		cmp.MeanAllocRatio = sumAllocRatio / float64(compiledQueries)
	}

	// Streaming panel: the full-collection query at 1x and 10x the
	// document count. Materialized evaluation must hold every result item
	// (pinning each decoded tree); the streaming path hands out bounded
	// chunks whose trees become collectible as soon as the consumer moves
	// on, so its peak stays flat as the result grows.
	streamExpr, err := xquery.Parse(`collection("items")/Item`)
	if err != nil {
		return nil, err
	}
	for _, mult := range []int{1, 10} {
		n := docs * mult
		db, err := engine.Open(filepath.Join(dir, fmt.Sprintf("exec-stream-%dx.db", mult)), engine.Options{
			DisableIndexes: opts.DisableIndexes,
		})
		if err != nil {
			return nil, err
		}
		col := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: n, Seed: scale.Seed})
		if err := db.LoadCollection(col); err != nil {
			db.Close()
			return nil, err
		}
		point := ExecStreamPoint{Docs: n}

		// Materialized side: the interpreter's sequence pins every result
		// node's decoded tree, so live heap with the result held is the
		// memory the old path could not give back.
		base := liveHeap()
		res, err := xquery.Eval(streamExpr, db)
		if err != nil {
			db.Close()
			return nil, err
		}
		if h := liveHeap(); h > base {
			point.MaterializedPeakHeap = h - base
		}
		point.Items = len(res)
		runtime.KeepAlive(res)
		res = nil

		// Streamed side: chunks are discarded as they arrive; sampling at
		// chunk boundaries catches whatever the executor keeps in flight.
		base = liveHeap()
		peak := base
		chunks := 0
		_, err = db.StreamQueryExpr(streamExpr, func(xquery.Seq) error {
			if chunks++; chunks%8 == 0 {
				if h := liveHeap(); h > peak {
					peak = h
				}
			}
			return nil
		})
		db.Close()
		if err != nil {
			return nil, err
		}
		if h := peak; h > base {
			point.StreamedPeakHeap = h - base
		}
		cmp.Stream = append(cmp.Stream, point)
	}
	return cmp, nil
}

// liveHeap forces a collection and returns the surviving heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureExecSide times repeats executions of query on db and reports the
// averaged wall time plus the allocation deltas per execution.
func measureExecSide(db *engine.DB, query string, repeats int) (ExecSide, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var total time.Duration
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if _, err := db.Query(query); err != nil {
			return ExecSide{}, err
		}
		total += time.Since(start)
	}
	runtime.ReadMemStats(&after)
	return ExecSide{
		ResponseNs:      total.Nanoseconds() / int64(repeats),
		AllocsPerOp:     (after.Mallocs - before.Mallocs) / uint64(repeats),
		AllocBytesPerOp: (after.TotalAlloc - before.TotalAlloc) / uint64(repeats),
	}, nil
}

// sameItems reports the first position where two result sequences differ
// under the string value of each item.
func sameItems(want, got xquery.Seq) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d items vs %d", len(got), len(want))
	}
	for i := range want {
		if xquery.ItemString(want[i]) != xquery.ItemString(got[i]) {
			return fmt.Errorf("item %d: %q vs %q", i, xquery.ItemString(got[i]), xquery.ItemString(want[i]))
		}
	}
	return nil
}

// PrintExec renders the comparison for the terminal run.
func PrintExec(w io.Writer, c *ExecCompare) {
	fmt.Fprintf(w, "\nCompiled executor vs interpreter — %d docs, %d repeats\n", c.Docs, c.Repeats)
	fmt.Fprintf(w, "  %-5s %-7s %-12s %-12s %-8s %-14s %-14s %s\n",
		"query", "items", "compiled", "interp", "speedup", "allocs/op", "allocs/op", "alloc ratio")
	for _, p := range c.Queries {
		fmt.Fprintf(w, "  %-5s %-7d %-12v %-12v %-8.2f %-14d %-14d %.1fx\n",
			p.ID, p.Items,
			time.Duration(p.Compiled.ResponseNs), time.Duration(p.Interpreted.ResponseNs), p.Speedup,
			p.Compiled.AllocsPerOp, p.Interpreted.AllocsPerOp, p.AllocRatio)
	}
	fmt.Fprintf(w, "  mean speedup %.2fx, mean alloc ratio %.1fx\n", c.MeanSpeedup, c.MeanAllocRatio)
	if len(c.Stream) > 0 {
		fmt.Fprintf(w, "  streaming peak heap (materialized vs streamed):\n")
		for _, s := range c.Stream {
			fmt.Fprintf(w, "    %6d docs, %6d items: %8.2f MB vs %.2f MB\n",
				s.Docs, s.Items,
				float64(s.MaterializedPeakHeap)/1e6, float64(s.StreamedPeakHeap)/1e6)
		}
	}
}
