// Package experiments reproduces the paper's evaluation (Section 5,
// Figure 7): it generates the four test databases with the ToXgene
// substitute, deploys them centralized and fragmented over in-process
// PartiX systems, runs the workloads with the paper's timing methodology
// (repeat each query, discard the first execution, average the rest), and
// reports response times per query and configuration.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/fragmentation"
	"partix/internal/partix"
	"partix/internal/wire"
	"partix/internal/workload"
	"partix/internal/xmltree"
)

// Measurement is the timing of one query under one configuration.
type Measurement struct {
	Response     time.Duration // slowest site + transmission + composition
	Parallel     time.Duration // slowest site only
	Transmission time.Duration
	Compose      time.Duration
	Strategy     partix.Strategy
	Items        int
	// Bytes is the size of the partial results shipped to the
	// coordinator (the "bytes on wire" of the cost model, cluster.SeqBytes).
	Bytes int
	// FirstItem is the time until the first result item reached the
	// coordinator; zero for empty results and whole-fragment fetches.
	FirstItem time.Duration
	// Frames is the number of sub-query result batches received.
	Frames int
}

// NoTransmission is the "-NT" view of a measurement (Figure 7(d) reports
// both).
func (m Measurement) NoTransmission() time.Duration { return m.Parallel + m.Compose }

// Series is one configuration's column: query ID → measurement.
type Series struct {
	Name  string
	Times map[string]Measurement
}

// Panel is one reproduced figure panel.
type Panel struct {
	ID      string
	Title   string
	Queries []workload.Query
	Series  []Series
	// Engine sums the node engines' counters over every deployment the
	// panel ran (collected just before each teardown), so drivers can
	// report decode/prune work alongside the timings.
	Engine engine.Stats
}

// Deployment is a runnable system plus its teardown.
type Deployment struct {
	System  *partix.System
	cleanup []func() error
}

// EngineStats sums the engine counters of every local node in the
// deployment.
func (d *Deployment) EngineStats() engine.Stats {
	var total engine.Stats
	for _, name := range d.System.Nodes() {
		if node, ok := d.System.Node(name).(*wire.LocalNode); ok {
			total.Add(node.DB().Stats())
		}
	}
	return total
}

// Close releases the deployment's engines.
func (d *Deployment) Close() {
	for i := len(d.cleanup) - 1; i >= 0; i-- {
		d.cleanup[i]()
	}
}

// Options configure a run.
type Options struct {
	// Dir is the working directory for node stores; empty uses a temp dir.
	Dir string
	// Repeats is how many timed executions are averaged after the
	// discarded warm-up run (the paper uses 10; benches use fewer).
	Repeats int
	// Cost is the communication model (GigabitEthernet by default).
	Cost *cluster.CostModel
	// DisableIndexes turns off index-assisted candidate pruning on every
	// node, approximating a scan-bound DBMS for plain value predicates
	// (the 2005-era eXist baseline benefits less from value indexes than
	// this engine does; see EXPERIMENTS.md).
	DisableIndexes bool
}

func (o Options) withDefaults() Options {
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
	if o.Cost == nil {
		o.Cost = &cluster.GigabitEthernet
	}
	return o
}

func (o Options) workDir(label string) (string, func() error, error) {
	if o.Dir != "" {
		dir := filepath.Join(o.Dir, label)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", nil, err
		}
		return dir, func() error { return os.RemoveAll(dir) }, nil
	}
	dir, err := os.MkdirTemp("", "partix-"+label+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() error { return os.RemoveAll(dir) }, nil
}

// Deploy builds a system with n nodes, publishes the collection under the
// given scheme (nil = centralized on node0) and returns the deployment.
func Deploy(label string, c *xmltree.Collection, scheme *fragmentation.Scheme,
	mode fragmentation.MaterializeMode, opts Options) (*Deployment, error) {
	opts = opts.withDefaults()
	dir, rmDir, err := opts.workDir(label)
	if err != nil {
		return nil, err
	}
	d := &Deployment{System: partix.NewSystem(*opts.Cost)}
	d.cleanup = append(d.cleanup, rmDir)

	nodes := 1
	if scheme != nil {
		nodes = len(scheme.Fragments)
	}
	for i := 0; i < nodes; i++ {
		db, err := engine.Open(filepath.Join(dir, fmt.Sprintf("node%d.db", i)), engine.Options{DisableIndexes: opts.DisableIndexes})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.cleanup = append(d.cleanup, db.Close)
		d.System.AddNode(wire.NewLocalNode(fmt.Sprintf("node%d", i), db))
	}

	placement := map[string]string{"": "node0"}
	if scheme != nil {
		placement = map[string]string{}
		for i, f := range scheme.Fragments {
			placement[f.Name] = fmt.Sprintf("node%d", i)
		}
	}
	if err := d.System.Publish(c, scheme, placement, partix.PublishOptions{Mode: mode}); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// MeasureQuery runs one query with the paper's methodology: one discarded
// warm-up, then repeats timed executions averaged.
func MeasureQuery(sys *partix.System, query string, repeats int) (Measurement, error) {
	warm, err := sys.Query(query)
	if err != nil {
		return Measurement{}, err
	}
	var m Measurement
	m.Strategy = warm.Strategy
	m.Items = len(warm.Items)
	frames := 0
	for i := 0; i < repeats; i++ {
		res, err := sys.Query(query)
		if err != nil {
			return Measurement{}, err
		}
		m.Response += res.ResponseTime()
		m.Parallel += res.ParallelTime
		m.Transmission += res.TransmissionTime
		m.Compose += res.ComposeTime
		m.FirstItem += res.FirstItemLatency
		m.Bytes += resultBytes(res)
		frames += res.Frames
	}
	n := time.Duration(repeats)
	m.Response /= n
	m.Parallel /= n
	m.Transmission /= n
	m.Compose /= n
	m.FirstItem /= n
	m.Bytes /= repeats
	m.Frames = frames / repeats
	return m, nil
}

// resultBytes is the size of the partial results (or fetched documents)
// a query shipped.
func resultBytes(res *partix.QueryResult) int {
	total := 0
	for _, sub := range res.Sub {
		total += sub.ResultBytes
	}
	return total
}

// MeasureWorkload runs a whole query set against a deployment.
func MeasureWorkload(sys *partix.System, name string, set []workload.Query, repeats int) (Series, error) {
	s := Series{Name: name, Times: map[string]Measurement{}}
	for _, q := range set {
		m, err := MeasureQuery(sys, q.Text, repeats)
		if err != nil {
			return s, fmt.Errorf("%s %s: %w", name, q.ID, err)
		}
		s.Times[q.ID] = m
	}
	return s, nil
}

// Speedup returns how much faster b answered the query than a
// (a.Response / b.Response).
func Speedup(a, b Measurement) float64 {
	if b.Response <= 0 {
		return 0
	}
	return float64(a.Response) / float64(b.Response)
}
