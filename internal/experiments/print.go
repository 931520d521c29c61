package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// PrintPanel writes a panel as the paper presents it: one row per query,
// one column per configuration, response times plus speedup versus the
// first (centralized) series.
func PrintPanel(w io.Writer, p *Panel) {
	fmt.Fprintf(w, "%s\n%s\n\n", p.Title, strings.Repeat("=", len(p.Title)))
	printSeries(w, p, func(m Measurement) time.Duration { return m.Response })
	fmt.Fprintln(w)
}

// PrintPanelNT writes the panel using the without-transmission view
// (Figure 7(d)'s FragModeX-NT series).
func PrintPanelNT(w io.Writer, p *Panel) {
	title := p.Title + " — without transmission time"
	fmt.Fprintf(w, "%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	printSeries(w, p, Measurement.NoTransmission)
	fmt.Fprintln(w)
}

func printSeries(w io.Writer, p *Panel, view func(Measurement) time.Duration) {
	fmt.Fprintf(w, "%-6s", "query")
	for _, s := range p.Series {
		fmt.Fprintf(w, " %22s", s.Name)
	}
	fmt.Fprintf(w, "  %s\n", "strategy / best speedup")
	for _, q := range p.Queries {
		fmt.Fprintf(w, "%-6s", q.ID)
		base := time.Duration(0)
		bestSpeedup := 0.0
		var strategy string
		for i, s := range p.Series {
			m, ok := s.Times[q.ID]
			if !ok {
				fmt.Fprintf(w, " %22s", "-")
				continue
			}
			d := view(m)
			if i == 0 {
				base = d
			} else {
				strategy = string(m.Strategy)
				if base > 0 && d > 0 {
					if sp := float64(base) / float64(d); sp > bestSpeedup {
						bestSpeedup = sp
					}
				}
			}
			fmt.Fprintf(w, " %22s", formatDuration(d))
		}
		fmt.Fprintf(w, "  %s", strategy)
		if bestSpeedup > 0 {
			fmt.Fprintf(w, " (%.1fx)", bestSpeedup)
		}
		fmt.Fprintln(w)
	}
}

// PrintEngineStats writes the panel's aggregated engine counters — the
// decode/prune work all node engines did across every deployment the
// panel measured.
func PrintEngineStats(w io.Writer, p *Panel) {
	e := p.Engine
	fmt.Fprintf(w, "engine stats: queries=%d docs-decoded=%d docs-pruned=%d range-pruned=%d index-only=%d bytes-decoded=%d\n\n",
		e.Queries, e.DocsDecoded, e.DocsPruned, e.RangePruned, e.IndexOnlyHits, e.BytesDecoded)
}

// PrintCSV writes a panel as machine-readable CSV: one row per (query,
// series) pair with the full timing decomposition, ready for plotting.
func PrintCSV(w io.Writer, p *Panel) {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	cw.Write([]string{
		"panel", "query", "class", "series", "strategy", "items",
		"response_us", "parallel_us", "transmission_us", "compose_us", "no_transmission_us",
	})
	for _, q := range p.Queries {
		for _, s := range p.Series {
			m, ok := s.Times[q.ID]
			if !ok {
				continue
			}
			cw.Write([]string{
				p.ID, q.ID, string(q.Class), s.Name, string(m.Strategy),
				strconv.Itoa(m.Items),
				strconv.FormatInt(m.Response.Microseconds(), 10),
				strconv.FormatInt(m.Parallel.Microseconds(), 10),
				strconv.FormatInt(m.Transmission.Microseconds(), 10),
				strconv.FormatInt(m.Compose.Microseconds(), 10),
				strconv.FormatInt(m.NoTransmission().Microseconds(), 10),
			})
		}
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
