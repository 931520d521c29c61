package experiments

import (
	"encoding/csv"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"partix/internal/partix"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xmltree"
)

func genItems(n int) *xmltree.Collection {
	return toxgene.GenerateItems(toxgene.ItemsConfig{Docs: n, Seed: 7})
}

// testScale keeps unit-test runs fast; the shapes are asserted by the
// benchmarks at larger scale.
var testScale = Scale{SmallItems: 120, LargeItems: 6, Articles: 8, StoreItems: 100, Seed: 7}

func testOpts(t *testing.T) Options {
	return Options{Dir: t.TempDir(), Repeats: 1}
}

func TestRunFig7aShape(t *testing.T) {
	p, err := RunFig7a(testScale, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 4 {
		t.Fatalf("series = %d, want centralized+2+4+8", len(p.Series))
	}
	if p.Series[0].Name != "centralized" {
		t.Fatalf("first series = %s", p.Series[0].Name)
	}
	for _, s := range p.Series {
		if len(s.Times) != 8 {
			t.Fatalf("%s: %d measurements", s.Name, len(s.Times))
		}
		for qid, m := range s.Times {
			if m.Response <= 0 {
				t.Fatalf("%s/%s: no response time", s.Name, qid)
			}
		}
	}
	// HQ1 matches the fragmentation predicate: routed in fragmented runs.
	if st := p.Series[3].Times["HQ1"].Strategy; st != partix.StrategyRouted {
		t.Errorf("HQ1 at 8 fragments: strategy %s", st)
	}
	// HQ8 is a count: composed as an aggregate when broadcast.
	if st := p.Series[3].Times["HQ8"].Strategy; st != partix.StrategyAggregate {
		t.Errorf("HQ8 at 8 fragments: strategy %s", st)
	}
}

// TestRunFig7bShape: the large-document sweep has the same four series
// as Figure 7(a), and every fragmented configuration returns as many items
// per query as the centralized one.
func TestRunFig7bShape(t *testing.T) {
	p, err := RunFig7b(testScale, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != "fig7b" || len(p.Series) != 4 || p.Series[0].Name != "centralized" {
		t.Fatalf("panel %s: series %d, first %q", p.ID, len(p.Series), p.Series[0].Name)
	}
	central := p.Series[0].Times
	for _, s := range p.Series {
		if len(s.Times) != len(p.Queries) {
			t.Fatalf("%s: %d measurements, want %d", s.Name, len(s.Times), len(p.Queries))
		}
		for _, q := range p.Queries {
			if got, want := s.Times[q.ID].Items, central[q.ID].Items; got != want {
				t.Errorf("%s/%s: %d items, centralized %d", s.Name, q.ID, got, want)
			}
		}
	}
	if p.Engine.Queries == 0 {
		t.Fatalf("no engine work recorded: %+v", p.Engine)
	}
}

func TestRunFig7cShape(t *testing.T) {
	p, err := RunFig7c(testScale, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 2 {
		t.Fatalf("series = %d", len(p.Series))
	}
	frag := p.Series[1]
	if frag.Times["VQ1"].Strategy != partix.StrategyRouted {
		t.Errorf("VQ1: %s", frag.Times["VQ1"].Strategy)
	}
	if frag.Times["VQ8"].Strategy != partix.StrategyReconstruct {
		t.Errorf("VQ8: %s", frag.Times["VQ8"].Strategy)
	}
}

func TestRunFig7dShape(t *testing.T) {
	p, err := RunFig7d(testScale, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 3 {
		t.Fatalf("series = %d", len(p.Series))
	}
	for _, s := range p.Series {
		if len(s.Times) != 11 {
			t.Fatalf("%s: %d measurements", s.Name, len(s.Times))
		}
	}
	// The -NT view must not exceed the -T view.
	for _, s := range p.Series {
		for qid, m := range s.Times {
			if m.NoTransmission() > m.Response {
				t.Fatalf("%s/%s: NT %v > T %v", s.Name, qid, m.NoTransmission(), m.Response)
			}
		}
	}
}

func TestRunSmallDB(t *testing.T) {
	p, err := RunSmallDB(testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 4 {
		t.Fatalf("series = %d", len(p.Series))
	}
}

func TestRunHeadline(t *testing.T) {
	best, panels, err := RunHeadline(testScale, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("panels = %d", len(panels))
	}
	if best.Speedup <= 0 || best.Query == "" {
		t.Fatalf("headline = %+v", best)
	}
}

func TestPrintPanel(t *testing.T) {
	p, err := RunSmallDB(testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintPanel(&sb, p)
	out := sb.String()
	for _, q := range workload.Horizontal("items") {
		if !strings.Contains(out, q.ID) {
			t.Fatalf("output lacks %s:\n%s", q.ID, out)
		}
	}
	if !strings.Contains(out, "centralized") {
		t.Fatal("output lacks series names")
	}
	var nt strings.Builder
	PrintPanelNT(&nt, p)
	if !strings.Contains(nt.String(), "without transmission") {
		t.Fatal("NT view missing")
	}
}

// TestPrintCSV: one header plus one row per (query, series) pair that has
// a measurement, with the -NT column equal to parallel + compose.
func TestPrintCSV(t *testing.T) {
	m := Measurement{
		Response: 900 * time.Microsecond, Parallel: 500 * time.Microsecond,
		Transmission: 300 * time.Microsecond, Compose: 100 * time.Microsecond,
		Strategy: partix.StrategyRouted, Items: 3,
	}
	p := &Panel{
		ID:      "p",
		Queries: []workload.Query{{ID: "Q1", Class: workload.ClassPredicate}, {ID: "Q2", Class: workload.ClassAggregation}},
		Series: []Series{
			{Name: "centralized", Times: map[string]Measurement{"Q1": m, "Q2": m}},
			{Name: "2 fragments", Times: map[string]Measurement{"Q1": m}},
		},
	}
	var sb strings.Builder
	PrintCSV(&sb, p)
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want header + 3:\n%s", len(rows), sb.String())
	}
	if rows[0][0] != "panel" || rows[0][10] != "no_transmission_us" {
		t.Fatalf("header = %v", rows[0])
	}
	want := []string{"p", "Q1", "predicate", "2 fragments", "routed", "3", "900", "500", "300", "100", "600"}
	if got := rows[2]; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("row = %v, want %v", got, want)
	}
	if rows[3][1] != "Q2" || rows[3][3] != "centralized" {
		t.Fatalf("last row = %v", rows[3])
	}
}

// TestMeasureResources: allocations made by fn are counted, memory it
// holds for a while shows up as peak-heap growth, and its error is
// returned.
func TestMeasureResources(t *testing.T) {
	const n, size = 64, 64 << 10
	r, err := MeasureResources(func() error {
		held := make([][]byte, n)
		for i := range held {
			held[i] = make([]byte, size)
		}
		time.Sleep(50 * time.Millisecond)
		runtime.KeepAlive(held)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Allocs < n || r.AllocBytes < n*size || r.PeakHeapBytes < n*size/2 {
		t.Fatalf("resources = %+v, want >= %d allocs of %d bytes held", r, n, size)
	}
	var sb strings.Builder
	PrintResources(&sb, r)
	if !strings.Contains(sb.String(), "allocs=") || !strings.Contains(sb.String(), "peak-heap=") {
		t.Fatalf("resource line = %q", sb.String())
	}
	boom := errors.New("boom")
	if _, err := MeasureResources(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestMeasureQueryAveragesRepeats(t *testing.T) {
	dep := mustDeployItems(t)
	defer dep.Close()
	m, err := MeasureQuery(dep.System, `count(collection("items")/Item)`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Response <= 0 || m.Items != 1 {
		t.Fatalf("measurement = %+v", m)
	}
}

func mustDeployItems(t *testing.T) *Deployment {
	t.Helper()
	dep, err := Deploy("m", genItems(60), nil, 0, Options{Dir: t.TempDir(), Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestSpeedup(t *testing.T) {
	a := Measurement{Response: 100}
	b := Measurement{Response: 25}
	if Speedup(a, b) != 4 {
		t.Fatal("speedup wrong")
	}
	if Speedup(a, Measurement{}) != 0 {
		t.Fatal("zero denominator not handled")
	}
}

func TestScaleMultiply(t *testing.T) {
	s := DefaultScale.Multiply(3)
	if s.SmallItems != DefaultScale.SmallItems*3 {
		t.Fatal("multiply wrong")
	}
	if DefaultScale.Multiply(0).SmallItems != DefaultScale.SmallItems {
		t.Fatal("multiply floor wrong")
	}
}
