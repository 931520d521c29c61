package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// Report is the machine-readable form of a partix-bench run, written as
// JSON so the perf trajectory can be tracked across changes instead of
// only in prose. Durations are nanoseconds.
type Report struct {
	Generated string        `json:"generated"` // RFC 3339
	Repeats   int           `json:"repeats"`
	Panels    []PanelReport `json:"panels,omitempty"`
	Obs       *ObsCompare   `json:"obs,omitempty"`
	// ValueIndex is the value-index vs text-index-only comparison
	// (partix-bench -exp valueindex).
	ValueIndex *ValueIndexCompare `json:"valueindex,omitempty"`
	// Planner is the cost-based planner vs union-all comparison
	// (partix-bench -exp planner).
	Planner *PlannerCompare `json:"planner,omitempty"`
	// MixedRW is the snapshot-read vs lock-coupled mixed read/write
	// comparison (partix-bench -exp mixedrw).
	MixedRW *MixedRWCompare `json:"mixedrw,omitempty"`
	// Exec is the compiled vectorized executor vs interpreter comparison
	// (partix-bench -exp exec).
	Exec *ExecCompare `json:"exec,omitempty"`
	// Telemetry is the flight recorder + workload profiler ablation and
	// profile-accuracy check (partix-bench -exp telemetry).
	Telemetry *TelemetryCompare `json:"telemetry,omitempty"`
	// ResultCache is the coordinator result cache + admission control
	// comparison (partix-bench -exp resultcache).
	ResultCache *ResultCacheCompare `json:"resultcache,omitempty"`
}

// PanelReport is one figure panel's measurements.
type PanelReport struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Series []SeriesReport `json:"series"`
}

// SeriesReport is one configuration's column.
type SeriesReport struct {
	Name    string        `json:"name"`
	Queries []QueryReport `json:"queries"`
}

// QueryReport is one query's averaged measurement.
type QueryReport struct {
	ID             string `json:"id"`
	Strategy       string `json:"strategy"`
	Items          int    `json:"items"`
	ResponseNs     int64  `json:"responseNs"`
	ParallelNs     int64  `json:"parallelNs"`
	TransmissionNs int64  `json:"transmissionNs"`
	ComposeNs      int64  `json:"composeNs"`
	Bytes          int    `json:"bytes"`
	FirstItemNs    int64  `json:"firstItemNs,omitempty"`
	Frames         int    `json:"frames,omitempty"`
}

// NewReport converts the measured panels into the JSON shape.
func NewReport(repeats int, panels []*Panel) *Report {
	r := &Report{Generated: time.Now().UTC().Format(time.RFC3339), Repeats: repeats}
	for _, p := range panels {
		pr := PanelReport{ID: p.ID, Title: p.Title}
		for _, s := range p.Series {
			sr := SeriesReport{Name: s.Name}
			for _, q := range p.Queries {
				m, ok := s.Times[q.ID]
				if !ok {
					continue
				}
				sr.Queries = append(sr.Queries, QueryReport{
					ID:             q.ID,
					Strategy:       string(m.Strategy),
					Items:          m.Items,
					ResponseNs:     m.Response.Nanoseconds(),
					ParallelNs:     m.Parallel.Nanoseconds(),
					TransmissionNs: m.Transmission.Nanoseconds(),
					ComposeNs:      m.Compose.Nanoseconds(),
					Bytes:          m.Bytes,
					FirstItemNs:    m.FirstItem.Nanoseconds(),
					Frames:         m.Frames,
				})
			}
			pr.Series = append(pr.Series, sr)
		}
		r.Panels = append(r.Panels, pr)
	}
	return r
}

// WriteJSON writes the report, indented for diffable commits.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RunResources is the process-level resource usage of one experiment run:
// everything allocated while it ran plus the peak live-heap growth over
// the pre-run baseline.
type RunResources struct {
	Allocs        uint64
	AllocBytes    uint64
	PeakHeapBytes uint64
}

// MeasureResources runs fn once and captures its RunResources. The heap
// is sampled by a background goroutine, so short spikes between samples
// can be missed; treat the peak as a lower bound.
func MeasureResources(fn func() error) (RunResources, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	peak, err := peakHeapDuring(fn)
	if err != nil {
		return RunResources{}, err
	}
	runtime.ReadMemStats(&after)
	return RunResources{
		Allocs:        after.Mallocs - before.Mallocs,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		PeakHeapBytes: peak,
	}, nil
}

// PrintResources renders one run's resource line.
func PrintResources(w io.Writer, r RunResources) {
	fmt.Fprintf(w, "  resources: allocs=%d (%.1f MB)  peak-heap=%.1f MB\n",
		r.Allocs, float64(r.AllocBytes)/1e6, float64(r.PeakHeapBytes)/1e6)
}

// peakHeapDuring runs fn once with a background sampler and reports the
// highest live-heap growth seen over the post-GC baseline. It is a
// separate dedicated run because ReadMemStats stops the world and would
// perturb the timed repeats.
func peakHeapDuring(fn func() error) (uint64, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := base
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	err := fn()
	close(done)
	<-sampled
	if err != nil {
		return 0, err
	}
	return peak - base, nil
}
