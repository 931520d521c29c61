package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"partix/internal/partix"
	"partix/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report file")

// sampleReport builds a fully populated report with fixed values, so the
// JSON shape the BENCH files commit to is pinned by the golden file.
func sampleReport() *Report {
	r := NewReport(3, []*Panel{samplePanel()})
	r.Generated = "2026-01-01T00:00:00Z" // pinned: golden files cannot carry wall time
	r.Obs = &ObsCompare{
		Query: `count(collection("items")/Item)`, Docs: 1500, Fragments: 3, Repeats: 3,
		DisabledNs: 1000000, EnabledNs: 1010000, TracedNs: 1050000,
		EnabledPct: 1, TracedPct: 5,
	}
	r.ValueIndex = &ValueIndexCompare{
		Docs: 1500, Repeats: 3,
		Sweep: []ValueIndexPoint{{
			Query:          `for $i in collection("items")/Item where $i/@id < 15 return $i/Code`,
			SelectivityPct: 1,
			Indexed:        ValueIndexSide{ResponseNs: 100000, DocsDecoded: 15, DocsPruned: 1485, RangePruned: 1485},
			Baseline:       ValueIndexSide{ResponseNs: 900000, DocsDecoded: 1500},
			DecodeRatio:    100,
		}},
		CountQuery: `count(collection("items")/Item)`, CountIndexOnly: true,
		ExistsQuery:     `exists(for $i in collection("items")/Item where $i/Section = "CD" return $i)`,
		ExistsIndexOnly: true, ExistsDocsDecoded: 0,
		BestDecodeRatio: 100,
	}
	r.MixedRW = &MixedRWCompare{
		Docs: 300, Reads: 120, Query: mixedRWQuery, WriterDocBytes: 32768,
		Sides: []MixedRWSide{
			{Name: "read-only", ReadP50Ns: 500000, ReadP99Ns: 900000, ReadMaxNs: 1000000},
			{Name: "lock-coupled writer, durable (seed locks + WAL)", Writer: true, LockCoupled: true,
				DurableWAL: true, Writes: 310, WALFsyncs: 305,
				ReadP50Ns: 700000, ReadP99Ns: 2000000, ReadMaxNs: 60000000, WriteP50Ns: 700000, WriteP99Ns: 3000000},
			{Name: "snapshot reads + durable writer", Writer: true, DurableWAL: true, Writes: 300, WALFsyncs: 290,
				ReadP50Ns: 600000, ReadP99Ns: 1250000, ReadMaxNs: 1600000, WriteP50Ns: 680000, WriteP99Ns: 2000000},
		},
		P99Ratio: 1.6,
	}
	r.Exec = &ExecCompare{
		Docs: 1500, Repeats: 3,
		Queries: []ExecQueryPoint{{
			ID:          "HQ1",
			Query:       `for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`,
			Items:       380,
			Compiled:    ExecSide{ResponseNs: 400000, AllocsPerOp: 9000, AllocBytesPerOp: 700000},
			Interpreted: ExecSide{ResponseNs: 1300000, AllocsPerOp: 52000, AllocBytesPerOp: 4200000},
			Speedup:     3.25, AllocRatio: 5.8,
		}},
		Stream: []ExecStreamPoint{
			{Docs: 1500, Items: 1500, MaterializedPeakHeap: 24000000, StreamedPeakHeap: 2000000},
			{Docs: 15000, Items: 15000, MaterializedPeakHeap: 240000000, StreamedPeakHeap: 2100000},
		},
		MeanSpeedup: 3.25, MeanAllocRatio: 5.8,
	}
	r.ResultCache = &ResultCacheCompare{
		Docs: 1500, Fragments: 4, Repeats: 3, Queries: 8,
		ColdNs: 1200000, HitNs: 2000, HitSpeedup: 600, HitFasterThanCold: true,
		CacheEntries: 8, CacheBytes: 90000,
		WriterRounds: 6, CheckedReads: 48, StaleServed: 0,
		HitsDuringWrites: 60, InvalidationsOnWrite: 6,
		OverloadSubmitted: 32, OverloadServed: 4, OverloadShed: 28, ShedTyped: true,
	}
	return r
}

func TestReportGoldenRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/experiments -run Golden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// The schema must round-trip: decoding the JSON yields the identical
	// report, so nothing is lost between a BENCH file and its reader.
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r, back) {
		t.Errorf("round-trip mismatch:\ngot  %+v\nwant %+v", back, *r)
	}
}

func samplePanel() *Panel {
	p := &Panel{ID: "fig7a", Title: "Figure 7(a) — sample"}
	p.Queries = []workload.Query{{ID: "Q1", Text: `count(collection("items")/Item)`, Class: workload.ClassAggregation}}
	p.Series = []Series{
		{Name: "centralized", Times: map[string]Measurement{
			"Q1": {Response: 4 * time.Millisecond, Parallel: 3 * time.Millisecond,
				Transmission: 500 * time.Microsecond, Compose: 500 * time.Microsecond,
				Strategy: partix.StrategyCentralized, Items: 12, Bytes: 4096},
		}},
		{Name: "fragmented", Times: map[string]Measurement{
			"Q1": {Response: 2 * time.Millisecond, Parallel: 1 * time.Millisecond,
				Transmission: 500 * time.Microsecond, Compose: 500 * time.Microsecond,
				Strategy: partix.StrategyUnion, Items: 12, Bytes: 4096,
				FirstItem: 100 * time.Microsecond, Frames: 2},
		}},
	}
	return p
}
