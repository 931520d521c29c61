// Benchmarks reproducing the paper's evaluation (one benchmark per
// Figure 7 panel) plus the ablations DESIGN.md calls out. These run at a
// reduced scale so `go test -bench=.` completes in minutes; the
// cmd/partix-bench driver runs the same panels at configurable scale and
// prints the paper-style series (see EXPERIMENTS.md).
package partix_test

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"partix/internal/engine"
	"partix/internal/experiments"
	"partix/internal/fragmentation"
	"partix/internal/partix"
	"partix/internal/storage"
	"partix/internal/toxgene"
	"partix/internal/wire"
	"partix/internal/workload"
	"partix/internal/xbench"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func netListen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func partixServe(db *engine.DB, l net.Listener) (*wire.Server, error) {
	srv := wire.NewServer(db, nil)
	go srv.Serve(l)
	return srv, nil
}

// benchScale keeps bench runs quick; shapes are preserved (DESIGN.md §3).
var benchScale = experiments.Scale{SmallItems: 600, LargeItems: 24, Articles: 24, StoreItems: 500, Seed: 2006}

func benchOpts(b *testing.B) experiments.Options {
	return experiments.Options{Dir: b.TempDir(), Repeats: 1}
}

// runWorkload executes every query of the set once per iteration. Wall
// time (ns/op) is the coordinator's TOTAL work — sub-queries run
// sequentially — while the reported sim-resp-ms/op metric is the paper's
// simulated parallel response time (slowest site + transmission +
// composition) summed over the workload.
func runWorkload(b *testing.B, sys *partix.System, set []workload.Query) {
	b.Helper()
	b.ResetTimer()
	var simulated time.Duration
	for i := 0; i < b.N; i++ {
		for _, q := range set {
			res, err := sys.Query(q.Text)
			if err != nil {
				b.Fatalf("%s: %v", q.ID, err)
			}
			simulated += res.ResponseTime()
		}
	}
	b.ReportMetric(float64(simulated.Milliseconds())/float64(b.N), "sim-resp-ms/op")
}

func deployItems(b *testing.B, large bool, docs, k int) *experiments.Deployment {
	b.Helper()
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: docs, Seed: benchScale.Seed, Large: large})
	var scheme *fragmentation.Scheme
	if k > 1 {
		var err error
		scheme, err = workload.HorizontalScheme("items", k)
		if err != nil {
			b.Fatal(err)
		}
	}
	dep, err := experiments.Deploy(fmt.Sprintf("bench-k%d", k), items, scheme, fragmentation.FragModeSD,
		experiments.Options{Dir: b.TempDir(), Repeats: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	return dep
}

// BenchmarkFig7aItemsSHor — Figure 7(a): ItemsSHor (≈2 KB docs) under
// horizontal fragmentation into 1/2/4/8 fragments, 8-query workload.
func BenchmarkFig7aItemsSHor(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		name := "centralized"
		if k > 1 {
			name = fmt.Sprintf("fragments=%d", k)
		}
		b.Run(name, func(b *testing.B) {
			dep := deployItems(b, false, benchScale.SmallItems, k)
			runWorkload(b, dep.System, workload.Horizontal("items"))
		})
	}
}

// BenchmarkFig7bItemsLHor — Figure 7(b): ItemsLHor (≈80 KB docs), same sweep.
func BenchmarkFig7bItemsLHor(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		name := "centralized"
		if k > 1 {
			name = fmt.Sprintf("fragments=%d", k)
		}
		b.Run(name, func(b *testing.B) {
			dep := deployItems(b, true, benchScale.LargeItems, k)
			runWorkload(b, dep.System, workload.Horizontal("items"))
		})
	}
}

// BenchmarkFig7cXBenchVer — Figure 7(c): XBenchVer under the
// prolog/body/epilog vertical fragmentation, 10-query workload.
func BenchmarkFig7cXBenchVer(b *testing.B) {
	articles := xbench.Generate(xbench.Config{Docs: benchScale.Articles, Seed: benchScale.Seed})
	for _, fragged := range []bool{false, true} {
		name := "centralized"
		var scheme *fragmentation.Scheme
		if fragged {
			name = "vertical"
			scheme = xbench.VerticalScheme("articles")
		}
		b.Run(name, func(b *testing.B) {
			dep, err := experiments.Deploy("bench7c", articles.Clone(), scheme, fragmentation.FragModeSD,
				experiments.Options{Dir: b.TempDir(), Repeats: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(dep.Close)
			runWorkload(b, dep.System, workload.Vertical("articles"))
		})
	}
}

// BenchmarkFig7dStoreHyb — Figure 7(d): StoreHyb hybrid fragmentation,
// centralized vs FragMode1 vs FragMode2, 11-query workload.
func BenchmarkFig7dStoreHyb(b *testing.B) {
	store := toxgene.GenerateStore(toxgene.StoreConfig{Items: benchScale.StoreItems, Seed: benchScale.Seed})
	configs := []struct {
		name   string
		scheme *fragmentation.Scheme
		mode   fragmentation.MaterializeMode
	}{
		{"centralized", nil, fragmentation.FragModeSD},
		{"FragMode1", workload.HybridScheme("store"), fragmentation.FragModeMD},
		{"FragMode2", workload.HybridScheme("store"), fragmentation.FragModeSD},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			dep, err := experiments.Deploy("bench7d", store.Clone(), cfg.scheme, cfg.mode,
				experiments.Options{Dir: b.TempDir(), Repeats: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(dep.Close)
			runWorkload(b, dep.System, workload.Hybrid("store"))
		})
	}
}

// BenchmarkHeadlineTextSearch isolates the paper's headline case: the
// text-search aggregation (HQ8) on the small-document database,
// centralized vs 8 fragments — the configuration that yields the largest
// scale-up factor.
func BenchmarkHeadlineTextSearch(b *testing.B) {
	q := workload.ByID(workload.Horizontal("items"), "HQ8")
	for _, k := range []int{1, 8} {
		name := "centralized"
		if k > 1 {
			name = "fragments=8"
		}
		b.Run(name, func(b *testing.B) {
			dep := deployItems(b, false, benchScale.SmallItems, k)
			b.ResetTimer()
			var simulated time.Duration
			for i := 0; i < b.N; i++ {
				res, err := dep.System.Query(q.Text)
				if err != nil {
					b.Fatal(err)
				}
				simulated += res.ResponseTime()
			}
			b.ReportMetric(float64(simulated.Microseconds())/float64(b.N)/1000, "sim-resp-ms/op")
		})
	}
}

// --- ablations (DESIGN.md §12) ---

// BenchmarkAblationDocGranularity isolates the per-document decode
// overhead the FragMode1/FragMode2 comparison rests on: the same items
// stored as many small documents versus one large document.
func BenchmarkAblationDocGranularity(b *testing.B) {
	const n = 400
	small := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: n, Seed: 2, Collection: "c"})
	big := toxgene.GenerateStore(toxgene.StoreConfig{Items: n, Seed: 2, Collection: "c"})
	cases := []struct {
		name  string
		col   *xmltree.Collection
		query string
	}{
		{"many-small-docs", small, `count(collection("c")/Item)`},
		{"one-big-doc", big, `count(collection("c")/Store/Items/Item)`},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			db, err := engine.Open(filepath.Join(b.TempDir(), "n.db"), engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { db.Close() })
			if err := db.LoadCollection(tc.col); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(tc.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReconstruction compares a routed single-fragment
// vertical query against one forcing the ⨝ reconstruction — the union-
// versus-join asymmetry of the paper's Section 5.
func BenchmarkAblationReconstruction(b *testing.B) {
	articles := xbench.Generate(xbench.Config{Docs: benchScale.Articles, Seed: 3})
	dep, err := experiments.Deploy("benchrec", articles, xbench.VerticalScheme("articles"),
		fragmentation.FragModeSD, experiments.Options{Dir: b.TempDir(), Repeats: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	cases := []struct{ name, query string }{
		{"routed-single-fragment", workload.ByID(workload.Vertical("articles"), "VQ1").Text},
		{"reconstruct-join", workload.ByID(workload.Vertical("articles"), "VQ8").Text},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dep.System.Query(tc.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkStorageEncodeDecode measures the binary document codec (the
// per-tree "parse" cost of the engine).
func BenchmarkStorageEncodeDecode(b *testing.B) {
	doc := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 1, Seed: 4, Large: true}).Docs[0]
	data, err := storage.EncodeDocument(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := storage.EncodeDocument(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := storage.DecodeDocument(doc.Name, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkXMLParse measures the XML text parser.
func BenchmarkXMLParse(b *testing.B) {
	doc := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 1, Seed: 5, Large: true}).Docs[0]
	text := xmltree.SerializeString(doc)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString("d", text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXQueryEval measures the evaluator over an in-memory source.
func BenchmarkXQueryEval(b *testing.B) {
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 200, Seed: 6})
	src := benchSource{col: items}
	e := xquery.MustParse(`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xquery.Eval(e, src); err != nil {
			b.Fatal(err)
		}
	}
}

type benchSource struct{ col *xmltree.Collection }

func (s benchSource) Docs(_ string, _ *xquery.Hint, fn func(*xmltree.Document) error) error {
	for _, d := range s.col.Docs {
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

func (s benchSource) Doc(name string) (*xmltree.Document, error) {
	return s.col.Doc(name), nil
}

// BenchmarkFragmentationApply measures materializing the Figure 2(a)
// horizontal design and checking the Section 3.3 rules.
func BenchmarkFragmentationApply(b *testing.B) {
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 300, Seed: 7})
	scheme, err := workload.HorizontalScheme("items", 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("apply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scheme.Apply(items); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check-rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scheme.Check(items); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireRoundTrip measures a query over the TCP protocol against
// the in-process driver.
func BenchmarkWireRoundTrip(b *testing.B) {
	db, err := engine.Open(filepath.Join(b.TempDir(), "n.db"), engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.LoadCollection(toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 100, Seed: 8})); err != nil {
		b.Fatal(err)
	}
	query := `count(collection("items")/Item)`

	b.Run("local", func(b *testing.B) {
		node := wire.NewLocalNode("n", db)
		for i := 0; i < b.N; i++ {
			if _, err := node.Query(query, "", false, func(xquery.Seq) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		l, err := netListen()
		if err != nil {
			b.Fatal(err)
		}
		srv, err := partixServe(db, l)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		client, err := wire.Dial("n", l.Addr().String(), 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { client.Close() })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.ExecuteQuery(query); err != nil {
				b.Fatal(err)
			}
		}
	})
}
