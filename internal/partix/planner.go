package partix

import (
	"math"
	"sort"

	"partix/internal/engine"
	"partix/internal/fragmentation"
	"partix/internal/obs"
	"partix/internal/xquery"
	"partix/internal/xquery/exec"
)

// Cost-based planning over fragment statistics.
//
// The rewrite rules decide what is *correct* to ship where; this file
// decides what is *cheap*. From each fragment's statistics snapshot the
// planner (a) proves fragments empty for the query and skips them — the
// union-all of the paper's Section 5 shrinks to the fragments that can
// contribute — (b) estimates per-sub-query cardinality and cost for
// Explain, and (c) orders reconstruction joins smallest-fetch-first.
//
// Skipping leans on the same soundness argument as the hint machinery:
// hint constraints are NECESSARY conditions for a document to contribute
// bindings, and a fragment without a single satisfying document produces
// the identity of every composition the executor performs (zero items
// for a union, 0 for count/sum, an empty sequence for min/max, the
// (0, 0) pair for a rewritten avg, false for exists, true for empty).
// Every exclusion rule below additionally mirrors the evaluator's
// comparison semantics exactly: a numeric literal compares numerically
// against numeric values but falls back to string comparison against
// non-numeric ones, so numeric-range exclusion also requires that the
// fragment has no non-numeric and no unindexed (overflow) values at the
// path. Equality also excludes a fragment whose membership filter for the
// path says no value equals the literal (engine.PathStats.MayHold): a
// Bloom filter has false positives, never false negatives, and keys a
// value as = compares it, by its number when it parses as one. When any
// of that cannot be established the fragment is kept — a skipped
// fragment must be *provably* empty, never just probably.

// planEstimate is the planner's guess for one fragment's contribution.
type planEstimate struct {
	docs      int64   // estimated documents contributing bindings; -1 unknown
	cost      float64 // estimated bytes the sub-query touches; -1 unknown
	indexOnly bool    // the node may decide the sub-query from its indexes
}

// statsPlan accumulates what statistics-driven planning learned about one
// query: the constraint hint it evaluated, the per-fragment estimates,
// and the generation stamps of every snapshot consulted (which the plan
// cache validates against).
type statsPlan struct {
	hint    *xquery.Hint
	est     map[string]planEstimate
	stamps  []genStamp
	skipped []string
}

// newStatsPlan starts statistics-driven planning for a single-collection
// query whose scan of the collection carries hint (nil: none, or several
// scans), or returns nil when the system has it disabled.
func (s *System) newStatsPlan(hint *xquery.Hint) *statsPlan {
	if !s.PlannerStats() {
		return nil
	}
	return &statsPlan{hint: hint, est: map[string]planEstimate{}}
}

// stamp records the snapshot consulted for one fragment.
func (sp *statsPlan) stamp(gs genStamp) { sp.stamps = append(sp.stamps, gs) }

// apply copies the accumulated planning facts onto the finished plan.
func (sp *statsPlan) apply(p *queryPlan) *queryPlan {
	if sp != nil {
		p.skipped = sp.skipped
		p.stamps = sp.stamps
		p.est = sp.est
	}
	return p
}

// skipFragment consults the fragment's statistics and reports whether the
// query provably selects nothing there; when kept, the fragment's
// estimate is recorded instead.
func (s *System) skipFragment(sp *statsPlan, meta *CollectionMeta, f *fragmentation.Fragment) bool {
	st, gs := s.fragmentStatistics(meta, f.Name)
	sp.stamp(gs)
	if fragmentProvablyEmpty(st, sp.hint) {
		sp.skipped = append(sp.skipped, f.Name)
		obs.CoordFragmentsSkipped.Inc()
		return true
	}
	sp.est[f.Name] = estimateFragment(st, sp.hint)
	return false
}

// fragmentProvablyEmpty reports whether the statistics prove the query
// cannot select any document of the fragment: the fragment holds no
// documents at all, or some necessary constraint of the query is
// unsatisfiable against the fragment's paths and value ranges. Exclusion
// reasoning beyond the raw doc count needs a Complete snapshot — only
// then does "no path key matches" mean "no document has the path".
func fragmentProvablyEmpty(st *engine.CollectionStatistics, hint *xquery.Hint) bool {
	if st == nil {
		return false
	}
	if st.Docs == 0 {
		return true
	}
	if !st.Complete || hint == nil {
		return false
	}
	for _, c := range hint.Constraints {
		if c.Path != nil && constraintExcludes(st, c.Path) {
			return true
		}
	}
	return false
}

// constraintExcludes reports whether no document of the snapshot can
// satisfy one path constraint. Every path key matching the constraint's
// pattern must individually rule out a match; a pattern matching no key
// excludes trivially (no document has such a node).
func constraintExcludes(st *engine.CollectionStatistics, pc *xquery.PathConstraint) bool {
	for key, ps := range st.Paths {
		if !engine.PathKeyMatches(pc.Steps, key) {
			continue
		}
		if pc.Op == xquery.CmpExists {
			return false // some document has the path
		}
		if !pathExcludes(ps, pc.Op, pc.Literal) {
			return false
		}
	}
	return true
}

// pathExcludes reports whether no value at the path can satisfy
// `value OP literal` under the evaluator's comparison semantics.
func pathExcludes(ps engine.PathStats, op xquery.CmpOp, lit string) bool {
	if ps.Overflow > 0 {
		return false // unindexed values might match anything
	}
	if ps.Distinct == 0 {
		// Docs exist at the path but no values are indexed: a defensive
		// impossibility (every node value is indexed or overflows) — keep.
		return ps.Docs == 0
	}
	litNum, litIsNum := parseLitNum(lit)
	if litIsNum && !math.IsNaN(litNum) {
		// Numeric literal: numeric values compare numerically, but
		// non-numeric values fall back to string comparison — those cannot
		// be ruled out by a numeric range, so none may exist.
		if ps.NonNumeric > 0 {
			return false
		}
		if !ps.HasNum {
			return true // all values are NaN; NaN satisfies no comparison
		}
		switch op {
		case xquery.CmpEq:
			return litNum < ps.MinNum || litNum > ps.MaxNum || !ps.MayHold(lit)
		case xquery.CmpLt:
			return ps.MinNum >= litNum
		case xquery.CmpLe:
			return ps.MinNum > litNum
		case xquery.CmpGt:
			return ps.MaxNum <= litNum
		case xquery.CmpGe:
			return ps.MaxNum < litNum
		}
		return false
	}
	if litIsNum {
		return false // NaN literal: mixed semantics, don't reason
	}
	// Non-numeric literal: every comparison is a string comparison, so the
	// raw string range over all values bounds them.
	switch op {
	case xquery.CmpEq:
		return lit < ps.MinStr || lit > ps.MaxStr || !ps.MayHold(lit)
	case xquery.CmpLt:
		return ps.MinStr >= lit
	case xquery.CmpLe:
		return ps.MinStr > lit
	case xquery.CmpGt:
		return ps.MaxStr <= lit
	case xquery.CmpGe:
		return ps.MaxStr < lit
	}
	return false
}

// parseLitNum is the evaluator's numeric interpretation of a comparison
// operand, shared via xquery.ParseNumber so the planner's range reasoning
// cannot drift from the comparison semantics.
func parseLitNum(lit string) (float64, bool) { return xquery.ParseNumber(lit) }

// estimateFragment guesses how many documents of the fragment satisfy the
// query's constraints and how many stored bytes the sub-query touches.
// The guess is the tightest single-constraint selectivity — constraints
// are conjunctive, so each bounds the answer from above.
func estimateFragment(st *engine.CollectionStatistics, hint *xquery.Hint) planEstimate {
	if st == nil {
		return planEstimate{docs: -1, cost: -1}
	}
	docs := st.Docs
	if st.Complete && hint != nil {
		for _, c := range hint.Constraints {
			if c.Path == nil {
				continue
			}
			if e := constraintEstimate(st, c.Path); e < docs {
				docs = e
			}
		}
	}
	cost := float64(0)
	if st.Docs > 0 {
		cost = float64(st.Bytes) * float64(docs) / float64(st.Docs)
	}
	return planEstimate{docs: docs, cost: cost}
}

// constraintEstimate sums per-path selectivity estimates over the keys a
// constraint's pattern matches: uniform value distribution for equality,
// linear interpolation over the numeric range for inequalities, and the
// path's doc count for existence. Overflowed docs always count — they
// might match anything.
func constraintEstimate(st *engine.CollectionStatistics, pc *xquery.PathConstraint) int64 {
	var total int64
	for key, ps := range st.Paths {
		if !engine.PathKeyMatches(pc.Steps, key) {
			continue
		}
		total += pathEstimate(ps, pc.Op, pc.Literal)
	}
	return total
}

func pathEstimate(ps engine.PathStats, op xquery.CmpOp, lit string) int64 {
	if op == xquery.CmpExists {
		return ps.Docs
	}
	if pathExcludes(ps, op, lit) {
		return 0
	}
	indexed := ps.Docs - ps.Overflow
	if op == xquery.CmpEq {
		e := ps.Overflow + indexed/maxInt64(1, ps.Distinct)
		return maxInt64(1, e)
	}
	litNum, litIsNum := parseLitNum(lit)
	if litIsNum && !math.IsNaN(litNum) && ps.HasNum && ps.NonNumeric == 0 && ps.MaxNum > ps.MinNum {
		frac := 0.0
		switch op {
		case xquery.CmpLt, xquery.CmpLe:
			frac = (litNum - ps.MinNum) / (ps.MaxNum - ps.MinNum)
		case xquery.CmpGt, xquery.CmpGe:
			frac = (ps.MaxNum - litNum) / (ps.MaxNum - ps.MinNum)
		}
		frac = math.Min(1, math.Max(0, frac))
		return maxInt64(1, ps.Overflow+int64(frac*float64(indexed)))
	}
	return ps.Docs // inequality over strings or mixed types: no model
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// orderReconstruct sorts the fragments of a reconstruction plan by their
// stored size, smallest first, so the coordinator materializes the small
// sides of the ID join before the large ones. Reconstruction is
// order-insensitive (the join is by document ID), so this is purely a
// cost choice. Fragments without statistics sort last.
func (s *System) orderReconstruct(sp *statsPlan, meta *CollectionMeta, frags []*fragmentation.Fragment) []*fragmentation.Fragment {
	if sp == nil || len(frags) < 2 {
		return frags
	}
	type sized struct {
		f     *fragmentation.Fragment
		bytes int64
	}
	arr := make([]sized, len(frags))
	for i, f := range frags {
		st, gs := s.fragmentStatistics(meta, f.Name)
		sp.stamp(gs)
		b := int64(math.MaxInt64)
		if st != nil {
			b = st.Bytes
			sp.est[f.Name] = planEstimate{docs: st.Docs, cost: float64(st.Bytes)}
		} else {
			sp.est[f.Name] = planEstimate{docs: -1, cost: -1}
		}
		arr[i] = sized{f: f, bytes: b}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].bytes < arr[j].bytes })
	out := make([]*fragmentation.Fragment, len(frags))
	for i, sz := range arr {
		out[i] = sz.f
	}
	return out
}

// annotateIndexOnly marks sub-queries the node may answer from its
// indexes alone: the count/exists/empty folds whose compiled program asks
// the engine to decide them (exec.Program.Decides). Purely informational:
// the node's indexes make the actual decision; Explain surfaces it.
func annotateIndexOnly(sp *statsPlan, p *queryPlan) {
	if sp == nil {
		return
	}
	for _, st := range p.steps {
		if !subIndexOnly(st.expr) {
			continue
		}
		e := sp.est[st.fragment]
		e.indexOnly = true
		sp.est[st.fragment] = e
	}
}

func subIndexOnly(e xquery.Expr) bool {
	if _, fold := e.(*xquery.FuncCall); !fold {
		return false
	}
	prog, ok := exec.Compile(e)
	return ok && prog.Decides()
}
