package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

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
