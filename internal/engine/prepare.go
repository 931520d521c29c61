package engine

import (
	"fmt"
	"time"

	"partix/internal/lru"
	"partix/internal/obs"
	"partix/internal/xmltree"
	"partix/internal/xquery"
	"partix/internal/xquery/exec"
)

// A node sees the same few texts again and again: the coordinator ships
// each fragment its sub-query, fetch filter and projection as text (the
// paper's Section 4). What a run needs of a text alone — its expression,
// compiled program, workload keys, normalized form and collection names,
// or a compiled fetch filter, or a parsed projection — is derived once
// per distinct text and kept in one bounded LRU per DB. Nothing kept
// depends on data: every run still selects its candidates, reads pages
// and decodes records, so a write outdates no entry.

// prepareCap bounds a DB's prepared entries; one keeps ≈2–3.5 KB.
const prepareCap = 64

// prepareMaxText is the longest text kept. A longer one is prepared for
// its own run only, so a client cannot pin prepareCap texts of a wire
// message's size.
const prepareMaxText = 4 << 10

// prepKind tells the entries of one text apart: the same string may be
// a query, a fetch filter and a projection.
type prepKind uint8

const (
	prepQuery prepKind = iota
	prepFilter
	prepProjection
)

type prepKey struct {
	kind prepKind
	text string
}

func newPrepareCache() *lru.Cache[prepKey, any] {
	return lru.New[prepKey, any](prepareCap, obs.EnginePrepareEvictions)
}

// lookup returns the entry kept for key, counting the hit or the miss.
func (db *DB) lookup(key prepKey) (any, bool) {
	v, ok := db.prepared.Get(key)
	if ok {
		obs.EnginePrepareHits.Inc()
	} else {
		obs.EnginePrepareMisses.Inc()
	}
	return v, ok
}

// keep caches a freshly prepared entry unless its text is too long.
func (db *DB) keep(key prepKey, v any) {
	if len(key.text) <= prepareMaxText {
		db.prepared.Put(key, v)
	}
}

// Prepared is a query made ready to run (DB.Prepare, StreamPrepared).
// It is shared by every run of its text and read-only.
type Prepared struct {
	Expr xquery.Expr
	// Keys are the query's workload keys per collection, what a
	// workload profiler counts (xquery.ExtractWorkloadKeys).
	Keys map[string]*xquery.WorkloadKeys
	// Normalized is the text as the flight recorder keys it
	// (xquery.NormalizeQueryText); empty when built from an Expr.
	Normalized string

	prog        *exec.Program // nil: the interpreter evaluates Expr
	hints       int           // scan hints, the traced plan step's detail
	collections []string      // the collections the query reads (heat)
}

// newPrepared derives everything a run of e needs; text is e's source
// when known.
func newPrepared(e xquery.Expr, text string) *Prepared {
	hints := xquery.ExtractScanHints(e)
	p := &Prepared{
		Expr:        e,
		Keys:        hints.WorkloadKeys(),
		hints:       len(hints),
		collections: xquery.CollectionNames(e),
	}
	if text != "" {
		p.Normalized = xquery.NormalizeQueryText(text)
	}
	if prog, ok := exec.Compile(e); ok {
		p.prog = prog
	}
	return p
}

// Prepare parses and compiles a query text, or returns the entry an
// earlier Prepare of the same text kept.
func (db *DB) Prepare(text string) (*Prepared, error) {
	p, _, err := db.PrepareTraced(text, false)
	return p, err
}

// PrepareTraced is Prepare that, with trace set, also returns the first
// two steps a node reports for a traced sub-query: parse (text to
// expression) and plan (scan hints and compile). On a cached text both
// are the lookup, and their details say "cached".
func (db *DB) PrepareTraced(text string, trace bool) (*Prepared, []obs.Span, error) {
	start := time.Now()
	key := prepKey{prepQuery, text}
	if v, ok := db.lookup(key); ok {
		p := v.(*Prepared)
		if !trace {
			return p, nil, nil
		}
		return p, []obs.Span{
			{Name: "parse", Detail: "cached", Duration: time.Since(start)},
			{Name: "plan", Detail: fmt.Sprintf("hints=%d cached", p.hints)},
		}, nil
	}
	e, err := xquery.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	parsed := time.Now()
	p := newPrepared(e, text)
	db.keep(key, p)
	if !trace {
		return p, nil, nil
	}
	return p, []obs.Span{
		{Name: "parse", Duration: parsed.Sub(start)},
		{Name: "plan", Detail: fmt.Sprintf("hints=%d", p.hints), Duration: time.Since(parsed)},
	}, nil
}

// fetchFilter returns a fetch's where text compiled as a document filter
// over collection (Fetch).
func (db *DB) fetchFilter(collection, where string) (*exec.Filter, error) {
	key := prepKey{prepFilter, where}
	v, ok := db.lookup(key)
	if !ok {
		e, err := xquery.Parse(where)
		if err != nil {
			return nil, fmt.Errorf("engine: fetch filter: %w", err)
		}
		f, ok := exec.CompileFilter(e)
		if !ok || len(xquery.CollectionNames(e)) != 1 {
			return nil, notFilter(where, collection)
		}
		db.keep(key, f)
		v = f
	}
	f := v.(*exec.Filter)
	if f.Collection() != collection {
		return nil, notFilter(where, collection)
	}
	return f, nil
}

func notFilter(where, collection string) error {
	return fmt.Errorf("engine: fetch filter %q is not a compiled for-where over collection %q", where, collection)
}

// Projection parses a fetch's projection text (xmltree.ParseProjection),
// or returns the trie an earlier call with the same text kept. The trie
// is shared and must not be changed.
func (db *DB) Projection(text string) (*xmltree.Projection, error) {
	key := prepKey{prepProjection, text}
	if v, ok := db.lookup(key); ok {
		return v.(*xmltree.Projection), nil
	}
	proj, err := xmltree.ParseProjection(text)
	if err != nil {
		return nil, err
	}
	db.keep(key, proj)
	return proj, nil
}
