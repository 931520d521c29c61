// Command partix is the PartiX coordinator CLI: it connects to a set of
// partixd nodes described by a JSON deployment file, publishes fragmented
// collections, and runs distributed XQuery queries.
//
// Usage:
//
//	partix -config deploy.json publish ./data/items
//	partix -config deploy.json query 'for $i in collection("items")/Item where $i/Section = "CD" return $i/Name'
//	partix -config deploy.json stats
//
// A deployment file names the nodes, the collection, the fragmentation
// design and the fragment placement:
//
//	{
//	  "collection": "items",
//	  "sd": false,
//	  "nodes": [
//	    {"name": "node0", "addr": "127.0.0.1:7001"},
//	    {"name": "node1", "addr": "127.0.0.1:7002"}
//	  ],
//	  "fragments": [
//	    {"name": "Fcd",   "kind": "horizontal", "predicate": "/Item/Section = \"CD\""},
//	    {"name": "Frest", "kind": "horizontal", "predicate": "/Item/Section != \"CD\""}
//	  ],
//	  "mode": "FragMode2",
//	  "placement": {"Fcd": "node0", "Frest": "node1"}
//	}
//
// An empty "fragments" list publishes the collection unfragmented on the
// node named by placement[""].
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"partix/internal/cluster"
	"partix/internal/fragmentation"
	"partix/internal/obs"
	"partix/internal/partix"
	"partix/internal/wire"
	"partix/internal/xmlschema"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

type nodeConfig struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

type fragmentConfig struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind"` // horizontal | vertical | hybrid
	Predicate string   `json:"predicate,omitempty"`
	Path      string   `json:"path,omitempty"`
	Prune     []string `json:"prune,omitempty"`
}

type deployConfig struct {
	Collection string              `json:"collection"`
	SD         bool                `json:"sd"`
	Nodes      []nodeConfig        `json:"nodes"`
	Fragments  []fragmentConfig    `json:"fragments"`
	Mode       string              `json:"mode,omitempty"` // FragMode1 | FragMode2
	Placement  map[string]string   `json:"placement"`
	Replicas   map[string][]string `json:"replicas,omitempty"`
	// Concurrent runs sub-queries in parallel instead of the simulated
	// slowest-site accounting.
	Concurrent bool `json:"concurrent,omitempty"`
	// Schema optionally holds the collection's schema in the compact
	// notation of xmlschema.ParseSchema; RootType names the document type.
	// With a schema the coordinator can verify fragment-path cardinalities
	// and route spine-only queries to provably complete fragments.
	Schema   string `json:"schema,omitempty"`
	RootType string `json:"rootType,omitempty"`
}

func main() {
	var (
		configPath = flag.String("config", "deploy.json", "deployment description")
		timeout    = flag.Duration("timeout", 5*time.Second, "node dial timeout")
		reqTimeout = flag.Duration("request-timeout", 0, "per-operation deadline on node requests (0 = none)")
		retries    = flag.Int("retries", 0, "reconnect retries for retry-safe node operations (0 = default of 2, negative = off)")
		pool       = flag.Int("pool", 0, "connections per node (0 = default of 4)")
		maxMsg     = flag.Int64("max-message-bytes", 0, "reject node messages larger than this (0 = built-in default)")
		trace      = flag.Bool("trace", false, "trace the query across the deployment and print the span tree")
		slowQuery  = flag.Duration("slow-query", 0, "log queries slower than this threshold (0 = off)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: partix -config deploy.json publish|query|stats [args]")
		os.Exit(2)
	}
	opts := wire.ClientOptions{
		DialTimeout:     *timeout,
		RequestTimeout:  *reqTimeout,
		MaxRetries:      *retries,
		PoolSize:        *pool,
		MaxMessageBytes: *maxMsg,
	}
	qopts := queryOptions{trace: *trace, slowQuery: *slowQuery}
	if err := run(*configPath, opts, qopts, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "partix:", err)
		os.Exit(1)
	}
}

// queryOptions are the coordinator-side observability switches.
type queryOptions struct {
	trace     bool
	slowQuery time.Duration
}

func run(configPath string, opts wire.ClientOptions, qopts queryOptions, args []string) error {
	cfg, err := loadConfig(configPath)
	if err != nil {
		return err
	}
	sys, closeAll, err := connect(cfg, opts)
	if err != nil {
		return err
	}
	defer closeAll()
	sys.SetTracing(qopts.trace)
	if qopts.slowQuery > 0 {
		sys.SetSlowQueryThreshold(qopts.slowQuery)
		sys.SetLogger(obs.NewTextLogger(os.Stderr, obs.LevelInfo))
	}

	scheme, mode, err := cfg.scheme()
	if err != nil {
		return err
	}

	switch args[0] {
	case "publish":
		if len(args) != 2 {
			return fmt.Errorf("publish needs a directory of .xml files")
		}
		col, err := readCollection(cfg.Collection, args[1])
		if err != nil {
			return err
		}
		opts := partix.PublishOptions{Mode: mode, CheckCorrectness: true, Replicas: cfg.Replicas}
		if err := sys.Publish(col, scheme, cfg.Placement, opts); err != nil {
			return err
		}
		fmt.Printf("published %d document(s) of %q across %d fragment(s)\n",
			col.Len(), cfg.Collection, max(1, len(cfg.Fragments)))
		return nil

	case "query":
		if len(args) != 2 {
			return fmt.Errorf("query needs an XQuery string")
		}
		if err := register(sys, cfg, scheme, mode); err != nil {
			return err
		}
		res, err := sys.Query(args[1])
		if err != nil {
			return err
		}
		for _, it := range res.Items {
			if n, ok := xquery.NodeOf(it); ok {
				fmt.Println(xmltree.NodeString(n))
			} else {
				fmt.Println(xquery.ItemString(it))
			}
		}
		fmt.Fprintf(os.Stderr, "strategy=%s fragments=%v response=%v (parallel=%v transmission=%v compose=%v)\n",
			res.Strategy, res.Fragments, res.ResponseTime(), res.ParallelTime, res.TransmissionTime, res.ComposeTime)
		if res.Frames > 0 {
			fmt.Fprintf(os.Stderr, "streamed: first-item=%v frames=%d bytes=%d\n",
				res.FirstItemLatency, res.Frames, res.StreamedBytes)
		}
		if res.Trace != nil {
			fmt.Fprintf(os.Stderr, "trace %s\n%s", res.TraceID, res.Trace.Format())
		}
		return nil

	case "explain":
		if len(args) != 2 {
			return fmt.Errorf("explain needs an XQuery string")
		}
		if err := register(sys, cfg, scheme, mode); err != nil {
			return err
		}
		plan, err := sys.Explain(args[1])
		if err != nil {
			return err
		}
		writePlan(os.Stdout, plan)
		return nil

	case "check":
		// Verify the Section 3.3 correctness rules by fetching the live
		// fragments and reconstructing: the design is consistent iff the
		// reconstruction succeeds and fragment contents are disjoint.
		if scheme == nil {
			return fmt.Errorf("check needs a fragmented deployment")
		}
		if err := register(sys, cfg, scheme, mode); err != nil {
			return err
		}
		var frags []*xmltree.Collection
		for _, f := range scheme.Fragments {
			node := sys.Node(cfg.Placement[f.Name])
			col, err := node.Fetch(cfg.Collection+"::"+f.Name, cluster.FetchSpec{})
			if err != nil {
				return err
			}
			frags = append(frags, col)
		}
		re, err := scheme.Reconstruct(frags)
		if err != nil {
			return fmt.Errorf("reconstruction failed: %w", err)
		}
		if err := scheme.Check(re); err != nil {
			return err
		}
		fmt.Printf("ok: %d fragment(s) reconstruct into %d document(s); all correctness rules hold\n",
			len(frags), re.Len())
		return nil

	case "top":
		// Workload report: pull telemetry from every node and rank fragments by observed load. A fresh CLI process has no
		// coordinator history of its own — everything shown here is the
		// nodes' accumulated view.
		ct := sys.ClusterTelemetry()
		for _, ns := range ct.Nodes {
			status := "no telemetry"
			if ns.Supported {
				status = "ok"
			}
			if ns.Err != "" {
				status = "error: " + ns.Err
			}
			fmt.Printf("node %-12s %s\n", ns.Node, status)
		}
		if len(ct.NodeHeat) > 0 {
			heat := ct.NodeHeat
			sort.Slice(heat, func(i, j int) bool {
				return heat[i].HeatLatencySeconds() > heat[j].HeatLatencySeconds()
			})
			fmt.Printf("\nhottest fragments (by time served):\n")
			fmt.Printf("%-16s %-12s %-10s %10s %12s %12s %10s\n",
				"collection", "fragment", "node", "queries", "docsDecoded", "bytes", "p99")
			for _, h := range heat {
				frag := h.Fragment
				if frag == "" {
					frag = "(whole)"
				}
				fmt.Printf("%-16s %-12s %-10s %10d %12d %12d %9.3fs\n",
					h.Collection, frag, h.Node, h.Queries, h.DocsDecoded, h.Bytes, h.P99Seconds)
			}
		}
		for _, cw := range ct.Profile.Collections {
			fmt.Printf("\ncollection %q: %d queries\n", cw.Collection, cw.Queries)
			for _, kc := range cw.Paths {
				fmt.Printf("  path %-40s %d\n", kc.Key, kc.Count)
			}
			for _, kc := range cw.Predicates {
				fmt.Printf("  pred %-40s %d\n", kc.Key, kc.Count)
			}
		}
		fmt.Printf("\ncluster metrics (coordinator + nodes):\n")
		for _, key := range []string{
			"partix_engine_queries_total", "partix_engine_docs_decoded_total",
			"partix_engine_docs_pruned_total", "partix_storage_wal_fsyncs_total",
			"partix_telemetry_records_total", "partix_telemetry_sampled_out_total",
		} {
			if v, ok := ct.Metrics[key]; ok {
				fmt.Printf("  %-40s %.0f\n", key, v)
			}
		}
		return nil

	case "stats":
		if err := register(sys, cfg, scheme, mode); err != nil {
			return err
		}
		stats, err := sys.FragmentStats(cfg.Collection)
		if err != nil {
			return err
		}
		for frag, bytes := range stats {
			name := frag
			if name == "" {
				name = "(unfragmented)"
			}
			fmt.Printf("%-20s %10.2f MB on %s\n", name, float64(bytes)/1e6, cfg.Placement[frag])
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// writePlan prints an explained plan: the strategy, then one line per
// step — a sub-query with its text, or a reconstruction fetch with what it
// ships of each document (keep=), the filter a semi-join's round-1 fetch
// runs (where=) and, on a round-2 fetch, that it is restricted to the
// documents round 1 returned (names←round 1).
func writePlan(w io.Writer, plan *partix.Plan) {
	planState := "computed"
	if plan.Cached {
		planState = "cached"
	}
	fmt.Fprintf(w, "strategy: %s\ncollections: %v\nplan: %s\n", plan.Strategy, plan.Collections, planState)
	if len(plan.Skipped) > 0 {
		fmt.Fprintf(w, "skipped: %v (proven empty from fragment statistics)\n", plan.Skipped)
	}
	// est renders the planner's per-step estimate; "?" when the step
	// had no statistics to estimate from.
	est := func(st partix.PlanStep) string {
		if st.EstDocs < 0 {
			return "est ?"
		}
		s := fmt.Sprintf("est≈%d docs, %.0f bytes", st.EstDocs, st.EstCost)
		if st.IndexOnly {
			s += ", index-only"
		}
		return s
	}
	for _, st := range plan.Steps {
		if st.Query != "" {
			fmt.Fprintf(w, "  %s @ %s [%s]: %s\n", st.Fragment, st.Node, est(st), st.Query)
		} else {
			// keep=* ships the stored documents whole; a semi-join's
			// round-1 fetch shows its filter, a round-2 fetch the names
			// it is restricted to.
			keep := st.Keep
			if keep == "" {
				keep = "*"
			}
			sel := ""
			switch {
			case st.Where != "":
				sel = " where=" + st.Where
			case st.Round == 2:
				sel = " names←round 1"
			}
			fmt.Fprintf(w, "  fetch %s @ %s [%s] keep=%s%s (reconstruction)\n", st.Fragment, st.Node, est(st), keep, sel)
		}
	}
}

func loadConfig(path string) (*deployConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg deployConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if cfg.Collection == "" || len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("%s: collection and nodes are required", path)
	}
	return &cfg, nil
}

func (cfg *deployConfig) scheme() (*fragmentation.Scheme, fragmentation.MaterializeMode, error) {
	mode := fragmentation.FragModeSD
	if cfg.Mode == "FragMode1" {
		mode = fragmentation.FragModeMD
	}
	if len(cfg.Fragments) == 0 {
		return nil, mode, nil
	}
	scheme := &fragmentation.Scheme{Collection: cfg.Collection, SD: cfg.SD}
	if cfg.Schema != "" {
		sch, err := xmlschema.ParseSchema(cfg.Collection, cfg.Schema)
		if err != nil {
			return nil, mode, err
		}
		if cfg.RootType == "" {
			return nil, mode, fmt.Errorf("schema given without rootType")
		}
		scheme.Schema = sch
		scheme.RootType = cfg.RootType
	}
	for _, fc := range cfg.Fragments {
		var f *fragmentation.Fragment
		var err error
		switch fc.Kind {
		case "horizontal":
			f, err = fragmentation.NewHorizontal(fc.Name, fc.Predicate)
		case "vertical":
			f, err = fragmentation.NewVertical(fc.Name, fc.Path, fc.Prune...)
		case "hybrid":
			f, err = fragmentation.NewHybrid(fc.Name, fc.Path, fc.Prune, fc.Predicate)
		default:
			err = fmt.Errorf("unknown fragment kind %q", fc.Kind)
		}
		if err != nil {
			return nil, mode, err
		}
		scheme.Fragments = append(scheme.Fragments, f)
	}
	return scheme, mode, nil
}

func connect(cfg *deployConfig, opts wire.ClientOptions) (*partix.System, func(), error) {
	sys := partix.NewSystem(cluster.GigabitEthernet)
	sys.SetConcurrent(cfg.Concurrent)
	var clients []*wire.Client
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for _, n := range cfg.Nodes {
		client, err := wire.DialWith(n.Name, n.Addr, opts)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		clients = append(clients, client)
		sys.AddNode(client)
	}
	return sys, closeAll, nil
}

// register puts the deployment's metadata in the catalog without
// re-publishing data (the fragments already live on the nodes).
func register(sys *partix.System, cfg *deployConfig, scheme *fragmentation.Scheme, mode fragmentation.MaterializeMode) error {
	return sys.Catalog().Register(&partix.CollectionMeta{
		Name:      cfg.Collection,
		Scheme:    scheme,
		Placement: cfg.Placement,
		Replicas:  cfg.Replicas,
		Mode:      mode,
	})
}

func readCollection(name, dir string) (*xmltree.Collection, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	col := xmltree.NewCollection(name)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		doc, err := xmltree.Parse(strings.TrimSuffix(e.Name(), ".xml"), f)
		f.Close()
		if err != nil {
			return nil, err
		}
		col.Add(doc)
	}
	if col.Len() == 0 {
		return nil, fmt.Errorf("no .xml files in %s", dir)
	}
	return col, nil
}
