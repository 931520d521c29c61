package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/toxgene"
	"partix/internal/xmltree"
)

// MixedRWCompare measures what snapshot-isolated reads buy under write
// load: the same read query's latency distribution with no writer, with a
// concurrent writer under the pre-WAL lock discipline (queries serialize
// behind each write, emulated with one reader-writer mutex around engine
// calls), and with a concurrent writer on the native MVCC path — without
// and with the durable (fsync-at-commit) write-ahead log. The engine and
// data are identical across sides; only the concurrency structure and the
// durability setting differ.
type MixedRWCompare struct {
	Docs           int    `json:"docs"`
	Reads          int    `json:"reads"` // timed reads per side
	Query          string `json:"query"`
	WriterDocBytes int    `json:"writerDocBytes"` // approx encoded size of each write

	Sides []MixedRWSide `json:"sides"`

	// P99Ratio is the lock-coupled p99 read latency over the snapshot
	// p99, both with durable (fsynced) commits — how much reads suffer
	// when they must queue behind whole commits, fsync included, the way
	// the seed's locking would have combined with the WAL. This is the
	// contrast that survives even a single-core host, where the volatile
	// pair only measures CPU time-slicing.
	P99Ratio float64 `json:"p99Ratio"`
}

// MixedRWSide is one concurrency configuration's measurement.
type MixedRWSide struct {
	Name        string `json:"name"`
	Writer      bool   `json:"writer"`      // a concurrent writer ran
	LockCoupled bool   `json:"lockCoupled"` // reads serialized behind writes (seed emulation)
	DurableWAL  bool   `json:"durableWAL"`  // writes fsynced at commit

	Writes     int64 `json:"writes"`    // writes completed during the read window
	WALFsyncs  int64 `json:"walFsyncs"` // fsyncs those writes cost (group commit batches them)
	ReadP50Ns  int64 `json:"readP50Ns"`
	ReadP99Ns  int64 `json:"readP99Ns"`
	ReadMaxNs  int64 `json:"readMaxNs"`
	WriteP50Ns int64 `json:"writeP50Ns,omitempty"`
	WriteP99Ns int64 `json:"writeP99Ns,omitempty"`
}

// mixedRWQuery is the read workload: an indexed-pruned scan that still
// decodes its candidates, like the paper's selective queries.
const mixedRWQuery = `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`

// mixedRWWriters is the writer-pool size on the sides that have a
// writer. Several concurrent committers is what exercises group commit:
// under the lock-coupled discipline they serialize into one fsync per
// commit, while the native path batches them into one fsync per round.
const mixedRWWriters = 4

// RunMixedRW measures the mixed read/write panel on a single engine (the
// effect is per-node; fragmentation would only add wire noise).
func RunMixedRW(scale Scale, opts Options) (*MixedRWCompare, error) {
	opts = opts.withDefaults()
	docs := scale.SmallItems / 5
	if docs < 100 {
		docs = 100
	}
	reads := 40 * opts.Repeats
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: docs, Seed: scale.Seed})

	// The writers replace documents in a side collection so the read
	// workload's candidate set stays fixed; padding makes each write move
	// a run of pages, like a real refresh stream. Writes are deliberately
	// heavy (~32 KB documents) — the point of the panel is the time a
	// commit makes readers wait, and a tiny commit hides under scheduling
	// noise — and the documents are parsed up front: a caller of
	// PutDocument hands over an already-built tree, so parse time belongs
	// to neither side's commit path.
	const padBytes = 32 << 10
	pool := make([]*xmltree.Document, 32)
	for i := range pool {
		pool[i] = xmltree.MustParseString(fmt.Sprintf("w%d", i), fmt.Sprintf(
			"<Item id=\"%d\"><Code>W%d</Code><Pad>%s</Pad></Item>", i, i, strings.Repeat("x", padBytes)))
	}
	writerDoc := func(i int) *xmltree.Document { return pool[i%len(pool)] }
	writerDocBytes := padBytes

	cmp := &MixedRWCompare{Docs: docs, Reads: reads, Query: mixedRWQuery, WriterDocBytes: writerDocBytes}

	configs := []struct {
		name        string
		writer      bool
		lockCoupled bool
		durable     bool
	}{
		{"read-only", false, false, false},
		{"lock-coupled writer, volatile (seed discipline)", true, true, false},
		{"snapshot reads + volatile writer", true, false, false},
		{"lock-coupled writer, durable (seed locks + WAL)", true, true, true},
		{"snapshot reads + durable writer", true, false, true},
	}
	for i, cfg := range configs {
		side, err := runMixedRWSide(fmt.Sprintf("mixedrw%d", i), cfg.name, items.Clone(), reads,
			cfg.writer, cfg.lockCoupled, cfg.durable, writerDoc, opts)
		if err != nil {
			return nil, err
		}
		cmp.Sides = append(cmp.Sides, *side)
	}
	var locked, snapshot int64
	for _, s := range cmp.Sides {
		if !s.DurableWAL {
			continue
		}
		if s.LockCoupled {
			locked = s.ReadP99Ns
		} else {
			snapshot = s.ReadP99Ns
		}
	}
	if snapshot > 0 {
		cmp.P99Ratio = float64(locked) / float64(snapshot)
	}
	return cmp, nil
}

func runMixedRWSide(label, name string, items *xmltree.Collection, reads int,
	writer, lockCoupled, durable bool, writerDoc func(int) *xmltree.Document,
	opts Options) (*MixedRWSide, error) {
	dir, cleanup, err := opts.workDir(label)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	db, err := engine.Open(filepath.Join(dir, "node.db"), engine.Options{WALNoFsync: !durable})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.LoadCollection(items); err != nil {
		return nil, err
	}

	side := &MixedRWSide{Name: name, Writer: writer, LockCoupled: lockCoupled, DurableWAL: durable}

	// The lock-coupled side recreates the seed discipline: every write
	// excludes every read for its full duration (store page writes plus
	// index maintenance happened under locks the read path needed).
	var coupler sync.RWMutex
	runRead := func() error {
		if lockCoupled {
			coupler.RLock()
			defer coupler.RUnlock()
		}
		_, err := db.Query(mixedRWQuery)
		return err
	}
	runWrite := func(i int) error {
		if lockCoupled {
			coupler.Lock()
			defer coupler.Unlock()
		}
		return db.PutDocument("refresh", writerDoc(i))
	}

	stop := make(chan struct{})
	var startOnce sync.Once
	started := make(chan struct{})
	// Each completed read refills the write-token pool (capacity = pool
	// size, deposits dropped when full); every writer consumes one token
	// per commit. Tying the write rate to read progress — instead of a
	// wall-clock pace — keeps the write pressure identical across sides:
	// in the lock-coupled configuration the coupling throttles both
	// directions, and a timer's granularity never skews a side. The small
	// capacity stops a backlog from accumulating: on a single-core host
	// the writers run in scheduling bursts, and draining a deep token
	// queue inside one timed read would charge that read dozens of writes
	// of wall clock.
	tokens := make(chan struct{}, mixedRWWriters)
	var wg sync.WaitGroup
	var writes atomic.Int64
	var writeMu sync.Mutex
	var writeLat []time.Duration
	var writeErr error
	if writer {
		for w := 0; w < mixedRWWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; ; i += mixedRWWriters {
					select {
					case <-stop:
						return
					case <-tokens:
					}
					t0 := time.Now()
					err := runWrite(i)
					d := time.Since(t0)
					startOnce.Do(func() { close(started) })
					writeMu.Lock()
					if err != nil {
						writeErr = err
						writeMu.Unlock()
						return
					}
					writeLat = append(writeLat, d)
					writeMu.Unlock()
					writes.Add(1)
				}
			}(w)
		}
	} else {
		close(started)
	}

	// Warm up once (the paper's discarded first execution), and wait for
	// the writers' first commit so the timed window genuinely overlaps
	// the write stream — the whole read loop can finish before a writer
	// goroutine is even scheduled otherwise.
	if err := runRead(); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	tokens <- struct{}{}
	<-started
	fsyncs0 := obs.StorageWALFsyncs.Value()
	readLat := make([]time.Duration, 0, reads)
	for i := 0; i < reads; i++ {
		t0 := time.Now()
		if err := runRead(); err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		readLat = append(readLat, time.Since(t0))
	fill:
		for j := 0; j < mixedRWWriters; j++ {
			select {
			case tokens <- struct{}{}:
			default:
				break fill
			}
		}
		// Yield so the writers actually get their slot on a single-core
		// host; otherwise the read loop monopolizes the scheduler and the
		// uncoupled sides see a fraction of the baseline's write traffic.
		runtime.Gosched()
	}
	side.WALFsyncs = obs.StorageWALFsyncs.Value() - fsyncs0
	close(stop)
	wg.Wait()
	if writeErr != nil {
		return nil, writeErr
	}

	side.Writes = writes.Load()
	side.ReadP50Ns = percentileNs(readLat, 0.50)
	side.ReadP99Ns = percentileNs(readLat, 0.99)
	side.ReadMaxNs = percentileNs(readLat, 1.0)
	if len(writeLat) > 0 {
		side.WriteP50Ns = percentileNs(writeLat, 0.50)
		side.WriteP99Ns = percentileNs(writeLat, 0.99)
	}
	return side, nil
}

// percentileNs returns the p-quantile (0 < p <= 1) of the latency sample
// in nanoseconds, by sorted rank.
func percentileNs(lat []time.Duration, p float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return int64(s[i])
}

// PrintMixedRW renders the comparison as a table.
func PrintMixedRW(w io.Writer, m *MixedRWCompare) {
	fmt.Fprintf(w, "\nMixed read/write: %d docs, %d timed reads per side\n", m.Docs, m.Reads)
	fmt.Fprintf(w, "read query: %s\n", m.Query)
	fmt.Fprintf(w, "%-48s %10s %10s %10s %8s %8s %10s\n", "configuration", "read p50", "read p99", "read max", "writes", "fsyncs", "write p50")
	for _, s := range m.Sides {
		wp50 := "-"
		if s.WriteP50Ns > 0 {
			wp50 = time.Duration(s.WriteP50Ns).Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "%-48s %10v %10v %10v %8d %8d %10s\n", s.Name,
			time.Duration(s.ReadP50Ns).Round(time.Microsecond),
			time.Duration(s.ReadP99Ns).Round(time.Microsecond),
			time.Duration(s.ReadMaxNs).Round(time.Microsecond),
			s.Writes, s.WALFsyncs, wp50)
	}
	if m.P99Ratio > 0 {
		fmt.Fprintf(w, "p99 read latency with durable commits, lock-coupled over snapshot: %.1fx\n", m.P99Ratio)
	}
}
