package partix

import (
	"fmt"
	"time"

	"partix/internal/fragmentation"
	"partix/internal/obs"
	"partix/internal/xmltree"
	"partix/internal/xquery"
	"partix/internal/xquery/exec"
)

// Strategy names how the query service executed a query.
type Strategy string

// Execution strategies of the Distributed XML Query Service.
const (
	// StrategyCentralized: the collection is unfragmented on one node.
	StrategyCentralized Strategy = "centralized"
	// StrategyRouted: the query touches exactly one fragment.
	StrategyRouted Strategy = "routed"
	// StrategyUnion: the query runs on several disjoint fragments and the
	// partial results are concatenated (the ∪ reconstruction).
	StrategyUnion Strategy = "union"
	// StrategyAggregate: a top-level count()/sum() composed by summing
	// the per-fragment values ("entirely evaluated in parallel, not
	// requiring additional time for reconstructing the global result").
	StrategyAggregate Strategy = "aggregate"
	// StrategyReconstruct: join-and-evaluate. The fragments' documents
	// are fetched, joined back at the coordinator — by ID (⨝) for
	// vertical and hybrid fragments, by ∪ for horizontal ones — and the
	// query is evaluated over the reconstructed collection. It answers
	// queries needing several vertical fragments, horizontal queries that
	// do not decompose into per-fragment answers (arithmetic over an
	// aggregate, a global order by, a let over the collection, …), and
	// queries over several collections or with doc().
	StrategyReconstruct Strategy = "reconstruct"
)

// QueryResult is the outcome of a distributed query execution, carrying
// the timing decomposition of the paper's methodology.
type QueryResult struct {
	// Items is the answer. A node item of a union that a node returned
	// is a storage.DeferredNode: checked, kept as its frame's
	// bytes, and built, with its frame's other nodes, on the first
	// xquery.NodeOf (partix.ItemNode). Every other node, and the node of
	// a one-item answer, is an *xmltree.Node.
	Items    xquery.Seq
	Strategy Strategy
	// Fragments actually queried or fetched.
	Fragments []string
	// Sub holds per-site measurements.
	Sub []SubTiming
	// ParallelTime is the slowest site's time.
	ParallelTime time.Duration
	// TransmissionTime is the modeled network time.
	TransmissionTime time.Duration
	// ComposeTime is coordinator-side composition (union, sum, or the
	// reconstruction join plus local evaluation).
	ComposeTime time.Duration
	// FirstItemLatency is the time from execution start until the first
	// sub-query result item reached the coordinator; zero for empty
	// results and for plans that fetch whole fragments instead.
	FirstItemLatency time.Duration
	// Frames is the total number of sub-query result batches received.
	Frames int
	// StreamedBytes is the size of all sub-query partial results
	// (SubResult.ResultBytes: record bytes for their node items, on
	// in-process and remote nodes alike) and fetched documents (XML text).
	StreamedBytes int
	// TraceID identifies this query across the deployment when tracing
	// is enabled; it is the tag the nodes saw in the wire header.
	TraceID string
	// Trace is the assembled span tree of a traced execution: the root
	// "query" span with planning, per-fragment sub-query (each carrying
	// the node's own spans as children) and composition below it. Nil
	// unless tracing was enabled.
	Trace *obs.Span
	// PlanTime is how long resolving the plan took: a plan-cache hit is
	// the lookup plus revalidation, a miss the full parse + plan. It is
	// deliberately NOT part of ResponseTime — the paper's decomposition
	// (parallel + transmission + composition) stays untouched by caching.
	PlanTime time.Duration
	// PlanCached marks a query answered with a cached plan.
	PlanCached bool
	// SkippedFragments lists fragments the planner proved empty for this
	// query from their statistics and never contacted.
	SkippedFragments []string
}

// SubTiming is one site's measured execution.
type SubTiming struct {
	Fragment    string
	Node        string
	Elapsed     time.Duration
	ResultBytes int
	Items       int
	// FirstFrame is the time to the site's first result batch; zero for
	// an empty result and for whole-fragment fetches.
	FirstFrame time.Duration
	// Cancelled marks a sub-query stopped early because the coordinator
	// had already decided the global result.
	Cancelled bool
	// Spans holds the node's own execution breakdown (parse, plan,
	// execute, and serialize for a remote node) when the query was traced;
	// empty otherwise.
	Spans []obs.Span
}

// ResponseTime is the simulated end-to-end response time: slowest site +
// network + composition.
func (r *QueryResult) ResponseTime() time.Duration {
	return r.ParallelTime + r.TransmissionTime + r.ComposeTime
}

// Query parses and executes q through the distributed query service. The
// compiled plan is memoized in the plan cache keyed by the normalized
// query text: a repeat of the same query (modulo whitespace, comments and
// quoting style) skips parsing and planning entirely, as long as the
// catalog version and the fragment-statistics generations the plan was
// built from still hold. Every query is executed over the fragments.
func (s *System) Query(q string) (*QueryResult, error) {
	planStart := time.Now()
	norm := xquery.NormalizeQueryText(q)
	e, p, cached, err := s.cachedPlan(norm, q)
	if err != nil {
		s.recordPlanFailure(nil, norm, time.Since(planStart), err)
		return nil, err
	}
	return s.run(e, p, time.Since(planStart), cached, norm)
}

// QueryExpr executes a parsed query: it is planned first (strategy
// selection, fragment pruning and skipping, sub-query rewriting) and the
// plan is then executed. The plan cache is keyed by query text, so
// QueryExpr always plans afresh; Explain returns the plan without
// executing it.
func (s *System) QueryExpr(e xquery.Expr) (*QueryResult, error) {
	planStart := time.Now()
	p, err := s.planQuery(e)
	if err != nil {
		s.recordPlanFailure(e, "", time.Since(planStart), err)
		return nil, err
	}
	return s.run(e, p, time.Since(planStart), false, "")
}

// cachedPlan resolves the compiled plan for a query: a still-valid cache
// entry is reused outright (no parse, no planning); a missing or stale
// one falls through to parse + plan, and the fresh plan is cached for
// the next request.
func (s *System) cachedPlan(norm, raw string) (xquery.Expr, *queryPlan, bool, error) {
	if entry, ok := s.planCache.Get(norm); ok {
		if s.stampsCurrent(entry.stampSet) {
			obs.CoordPlanCacheHits.Inc()
			return entry.expr, entry.plan, true, nil
		}
		s.planCache.Remove(norm)
		obs.CoordPlanCacheInvalidations.Inc()
	}
	obs.CoordPlanCacheMisses.Inc()
	e, err := xquery.Parse(raw)
	if err != nil {
		return nil, nil, false, err
	}
	// The catalog version is read before planning: a registration racing
	// with the plan leaves the entry stamped with the older version, so
	// the next lookup discards it — stale in the safe direction.
	version := s.catalog.Version()
	p, err := s.planQuery(e)
	if err != nil {
		return nil, nil, false, err
	}
	s.planCache.Put(norm, &planEntry{stampSet: stampSet{catalogVersion: version, stamps: p.stamps}, expr: e, plan: p})
	return e, p, false, nil
}

// run executes a compiled plan and assembles the measured result. norm
// is the normalized query text when known — the slow-query log carries
// it so duplicate hot queries aggregate under one key; an empty norm
// (QueryExpr callers) falls back to formatting the expression on demand.
func (s *System) run(e xquery.Expr, p *queryPlan, planTime time.Duration, cached bool, norm string) (*QueryResult, error) {
	start := time.Now()
	trace := s.Tracing()
	// Every query gets a correlation tag so flight records, log lines and
	// node-side error frames join up; a traced query's tag is its trace ID.
	tag := obs.NewTraceID()
	res, err := s.executePlan(e, p, tag, trace)
	if err != nil {
		s.recordQuery(p, e, norm, tag, planTime, planTime+time.Since(start), cached, nil, err)
		return nil, err
	}
	res.PlanTime = planTime
	res.PlanCached = cached
	res.SkippedFragments = p.skipped
	elapsed := planTime + time.Since(start)
	obs.CoordQueries.Inc()
	obs.CoordQuerySeconds.Observe(elapsed.Seconds())
	if trace {
		res.TraceID = tag
		res.Trace = assembleTrace(res, planTime, elapsed)
	}
	if thr := s.SlowQueryThreshold(); thr > 0 && elapsed >= thr {
		if norm == "" {
			norm = xquery.NormalizeQueryText(xquery.Format(e))
		}
		planState := "computed"
		if cached {
			planState = "cached"
		}
		obs.CoordSlowQueries.Inc()
		s.Logger().Log(obs.LevelWarn, "partix: slow query",
			"trace_id", tag,
			"query", norm,
			"plan", planState,
			"strategy", string(res.Strategy),
			"elapsed", elapsed,
			"threshold", thr,
			"fragments", len(res.Fragments),
			"items", len(res.Items),
		)
	}
	s.recordQuery(p, e, norm, tag, planTime, elapsed, cached, res, nil)
	return res, nil
}

// assembleTrace builds the coordinator's span tree for a traced query:
// the root "query" span covers the whole execution, with planning, one
// span per sub-query (each adopting the node's own spans as children)
// and the composition below it. Spans carry only durations, so clock
// skew between coordinator and nodes cannot corrupt the tree.
func assembleTrace(res *QueryResult, planTime, elapsed time.Duration) *obs.Span {
	root := &obs.Span{
		Name:     "query",
		Detail:   fmt.Sprintf("strategy=%s", res.Strategy),
		Duration: elapsed,
	}
	root.Add(obs.Span{Name: "plan", Duration: planTime})
	for _, st := range res.Sub {
		detail := "node=" + st.Node
		if st.Fragment != "" {
			detail = fmt.Sprintf("fragment=%s node=%s", st.Fragment, st.Node)
		}
		if st.Cancelled {
			detail += " cancelled"
		}
		root.Add(obs.Span{
			Name:     "subquery",
			Detail:   detail,
			Duration: st.Elapsed,
			Children: st.Spans,
		})
	}
	root.Add(obs.Span{Name: "compose", Duration: res.ComposeTime})
	return root
}

// queryPlan is the outcome of planning: what runs where, and how the
// answer is composed. Plans are immutable once built — the plan cache
// hands the same plan to every repeat of the query.
type queryPlan struct {
	strategy Strategy
	// steps are the plan's sub-queries or fetches, in execution order
	// (a join's fetches smallest estimated side first when statistics
	// were available). Zero steps: the query contradicts every fragment.
	steps   []planStep
	compose composition
	// fold names the aggregate or decider function an aggregate or
	// decider composition folds.
	fold string
	// prog, when set, evaluates a join composition: the query compiled
	// once at plan time and run over the joined documents (shared by every
	// execution of a cached plan; each run keeps its state to itself). The
	// fetch steps then ship only what it reads. Without prog the fragments
	// are fetched whole and the interpreter evaluates. For a semi-join
	// (steps in round 2) prog is the residual query: the where conjuncts
	// the round-1 fetches decide are removed from it.
	prog *exec.Program
	// skipped lists fragments statistics proved empty for this query.
	skipped []string
	// stamps records the statistics snapshots planning consulted; the
	// plan cache revalidates them before reusing the plan.
	stamps []genStamp
	// est holds the planner's per-fragment estimates for Explain.
	est map[string]planEstimate
	// work holds the query's canonical workload keys (paths and
	// predicates per collection), mined at plan time from the hints the
	// plan was made with, so a plan-cache hit feeds the workload profiler
	// without re-walking the expression.
	work map[string]*xquery.WorkloadKeys
}

// planQuery analyzes the query and decides the execution strategy. The
// query's hints are extracted once: fragment pruning, statistics-driven
// skipping and the workload keys all read them.
func (s *System) planQuery(e xquery.Expr) (*queryPlan, error) {
	hints := xquery.ExtractScanHints(e)
	p, err := s.plan(e, hints)
	if err != nil {
		return nil, err
	}
	p.work = hints.WorkloadKeys()
	return p, nil
}

// plan chooses the strategy for e, pruning fragments with its hints.
func (s *System) plan(e xquery.Expr, hints xquery.Hints) (*queryPlan, error) {
	colls := xquery.CollectionNames(e)
	if len(colls) == 0 {
		return nil, fmt.Errorf("partix: query references no collection")
	}
	metas := make([]*CollectionMeta, len(colls))
	for i, name := range colls {
		m := s.catalog.Lookup(name)
		if m == nil {
			return nil, fmt.Errorf("partix: collection %q is not registered", name)
		}
		metas[i] = m
	}

	// Multiple collections: evaluate at the coordinator over fetched,
	// reconstructed collections (the paper's prototype takes decomposed
	// queries; automatic decomposition of cross-collection joins is out
	// of scope there too).
	if len(colls) > 1 {
		p := &queryPlan{strategy: StrategyReconstruct, compose: composeJoin}
		for _, meta := range metas {
			if !meta.Fragmented() {
				p.steps = append(p.steps, newStep(meta, "", nil))
				continue
			}
			if err := joinable(meta); err != nil {
				return nil, err
			}
			for _, f := range meta.Scheme.Fragments {
				p.steps = append(p.steps, newStep(meta, f.Name, nil))
			}
		}
		return p, nil
	}

	meta := metas[0]
	hint := hints.Collection(meta.Name)
	if !meta.Fragmented() {
		p := &queryPlan{strategy: StrategyCentralized, steps: []planStep{newStep(meta, "", e)}}
		if sp := s.newStatsPlan(hint); sp != nil {
			st, gs := s.fragmentStatistics(meta, "")
			sp.stamp(gs)
			sp.est[""] = estimateFragment(st, sp.hint)
			sp.apply(p)
			annotateIndexOnly(sp, p)
		}
		return p, nil
	}

	// doc() references resolve against whatever store evaluates them; on
	// a fragment node the document may be absent or partial. Queries
	// mixing doc() with a fragmented collection are therefore evaluated
	// at the coordinator over the reconstructed collection.
	if usesDocCall(e) {
		return s.joinPlan(e, meta, s.newStatsPlan(hint), meta.Scheme.Fragments, xquery.Reads{})
	}

	fold, ok := decomposable(e)
	if meta.Scheme.AllHorizontal() {
		return s.planHorizontal(e, meta, hint, fold, ok)
	}
	return s.planVertical(e, meta, xquery.ExtractReads(e), hint, fold, ok)
}

// joinable rejects a join over FragMode1 hybrid fragments, whose
// documents are the repeating children themselves.
func joinable(meta *CollectionMeta) error {
	if meta.Mode == fragmentation.FragModeMD {
		return fmt.Errorf("partix: query needs a join of the fragments of %q, but FragMode1 documents cannot be joined back", meta.Name)
	}
	return nil
}

// joinPlan answers e by join-and-evaluate over frags of meta: one fetch
// step per fragment, smallest first when statistics are available. When
// e compiles (and reads no doc(), which the fetch projections would not
// cover), the program composes and each fetch ships only what it reads:
// a fragment the query reads whole is fetched as stored. When some where
// conjunct is decided by a fragment that owns it (splitWhere, from e's
// read set; the zero Reads plans no semi-join), the plan is a semi-join
// in two rounds: round 1 fetches those fragments through their filters,
// round 2 the others by the names round 1 returned, and the program is
// the residual query.
func (s *System) joinPlan(e xquery.Expr, meta *CollectionMeta, sp *statsPlan, frags []*fragmentation.Fragment, reads xquery.Reads) (*queryPlan, error) {
	if err := joinable(meta); err != nil {
		return nil, err
	}
	p := &queryPlan{strategy: StrategyReconstruct, compose: composeJoin}
	frags = s.orderReconstruct(sp, meta, frags)
	var split *whereSplit
	if !usesDocCall(e) {
		if split = splitWhere(e, meta, reads, frags); split != nil {
			p.prog = split.residual
		} else {
			p.prog, _ = exec.Compile(e)
		}
	}
	var second []planStep
	for i, f := range frags {
		st := newStep(meta, f.Name, nil)
		if p.prog != nil {
			st.keep = fetchProjection(p.prog.Keep(), f)
		}
		if split != nil {
			if st.where = split.filters[i]; st.where == nil {
				st.round = 2
				second = append(second, st)
				continue
			}
		}
		p.steps = append(p.steps, st)
	}
	p.steps = append(p.steps, second...)
	return sp.apply(p), nil
}

// fetchProjection is the projection a fetch of fragment f ships for a
// query reading keep: nil when the walk down f's path reaches a node kept
// whole (the stored records go out as they are), keep itself otherwise.
// The whole trie is sound to ship: over a fragment's documents — its
// subtree under the replicated spine — it selects exactly the part of f
// the query reads.
func fetchProjection(keep *xmltree.Projection, f *fragmentation.Fragment) *xmltree.Projection {
	labels := f.Labels
	if len(labels) > 0 {
		labels = labels[1:] // the trie is rooted at the root element
	}
	t := keep
	for _, name := range labels {
		if t.Whole() {
			return nil
		}
		sub, ok := t.Child(name)
		if !ok {
			return keep // the query reads only the spine here
		}
		t = sub
	}
	if t.Whole() {
		return nil
	}
	return keep
}

func usesDocCall(e xquery.Expr) bool {
	found := false
	xquery.Walk(e, func(x xquery.Expr) {
		if _, ok := x.(*xquery.DocCall); ok {
			found = true
		}
	})
	return found
}

// planHorizontal answers a decomposable query from the fragments that can
// contribute: it prunes fragments whose predicate contradicts the query,
// skips fragments whose statistics prove them empty for the query, and
// targets the rewritten query at the remainder. Any other query reads
// the collection as a whole and is joined and evaluated over every
// fragment.
func (s *System) planHorizontal(e xquery.Expr, meta *CollectionMeta, hint *xquery.Hint, fold string, decomposes bool) (*queryPlan, error) {
	sp := s.newStatsPlan(hint)
	if !decomposes {
		return s.joinPlan(e, meta, sp, meta.Scheme.Fragments, xquery.Reads{})
	}
	var relevant []*fragmentation.Fragment
	for _, f := range meta.Scheme.Fragments {
		if contradictsPredicate(f.Predicate, nil, hint) {
			continue
		}
		if sp != nil && s.skipFragment(sp, meta, f) {
			continue
		}
		relevant = append(relevant, f)
	}
	plan, err := unionPlan(e, meta, fold, relevant)
	if err != nil {
		return nil, err
	}
	sp.apply(plan)
	annotateIndexOnly(sp, plan)
	return plan, nil
}

// planVertical unions across sibling hybrid fragments when the query is
// decomposable and item-scoped, routes to one fragment when only one
// holds what the query reads, and falls back to join reconstruction
// otherwise. Vertical and hybrid fragments hold projections whose local
// paths diverge from the global document shape, so statistics only feed
// the reconstruction fetch order here — never fragment skipping.
func (s *System) planVertical(e xquery.Expr, meta *CollectionMeta, reads xquery.Reads, hint *xquery.Hint, fold string, decomposes bool) (*queryPlan, error) {
	sp := s.newStatsPlan(hint)
	touched := touchedFragments(meta, reads)
	if len(touched) == 0 && !reads.Unresolved {
		// Spine-only query: any fragment guaranteed to hold every
		// document answers it from its spine.
		for _, f := range meta.Scheme.Fragments {
			if holdsAllDocuments(meta, f) {
				touched = []*fragmentation.Fragment{f}
				break
			}
		}
	}
	if len(touched) == 0 {
		touched = meta.Scheme.Fragments
	}
	// Union is sound when the query decomposes, all touched fragments are
	// hybrid siblings (same projection path) and the query reads inside
	// one repeating child at a time — it then treats the children as an
	// MD collection partitioned by the σ predicates, so a sibling whose
	// predicate contradicts the query contributes nothing.
	if decomposes && unionable(meta, reads, touched) {
		var kept []*fragmentation.Fragment
		for _, f := range touched {
			if !contradictsPredicate(f.Predicate, f.Labels, hint) {
				kept = append(kept, f)
			}
		}
		if plan, err := unionPlan(e, meta, fold, kept); err == nil {
			return plan, nil
		}
	}
	if len(touched) == 1 {
		f := touched[0]
		// Documents where the projection selects nothing are absent from
		// the fragment; if the query iterates an ancestor of the
		// projection root, those documents' bindings would silently
		// disappear — unless the schema guarantees the path is mandatory.
		if ancestorExistenceOf(reads.Paths, meta.Name, f) && !holdsAllDocuments(meta, f) {
			return s.joinPlan(e, meta, sp, touched, reads)
		}
		sub, err := rewriteForFragment(e, meta.Name, meta.NodeCollection(f.Name), stripLabels(meta, f))
		if err != nil {
			return s.joinPlan(e, meta, sp, touched, reads)
		}
		return &queryPlan{strategy: StrategyRouted, steps: []planStep{newStep(meta, f.Name, sub)}}, nil
	}
	return s.joinPlan(e, meta, sp, touched, reads)
}

// unionPlan ships a decomposable query, rewritten for each fragment, to
// frags and composes their answers: one fragment's answer is the global
// one; several concatenate (∪) for a stream and fold for an aggregate or
// decider. With no fragment left the fold runs over nothing, giving the
// aggregate's zero value. It fails when the query cannot be rewritten
// for a fragment.
func unionPlan(e xquery.Expr, meta *CollectionMeta, fold string, frags []*fragmentation.Fragment) (*queryPlan, error) {
	plan := &queryPlan{strategy: StrategyUnion, fold: fold}
	shipped := e
	switch {
	case len(frags) <= 1:
		plan.strategy = StrategyRouted
	case fold != "":
		plan.strategy = StrategyAggregate
		shipped = rewriteAggregateForFragments(e)
	}
	if len(frags) != 1 {
		switch fold {
		case "":
		case "exists", "empty":
			plan.compose = composeDecider
		default:
			plan.compose = composeAggregate
		}
	}
	for _, f := range frags {
		sub, err := rewriteForFragment(shipped, meta.Name, meta.NodeCollection(f.Name), stripLabels(meta, f))
		if err != nil {
			return nil, err
		}
		plan.steps = append(plan.steps, newStep(meta, f.Name, sub))
	}
	return plan, nil
}

// PlanStep describes one sub-query or fetch of an explained plan.
type PlanStep struct {
	Fragment string
	Node     string
	// Query is the rewritten sub-query text; empty for reconstruction
	// fetches, which ship a fragment collection's documents instead.
	Query string
	// Keep is the projection a reconstruction fetch cuts each document
	// down to at the node (xmltree.Projection's text); empty when the
	// fetch ships the stored documents whole.
	Keep string
	// Where is the filter a round-1 semi-join fetch runs at the node
	// (xquery.Format text); only the documents it selects ship. Empty
	// for every other step.
	Where string
	// Round is the step's execution round: 1 for every step of a
	// single-round plan and for a semi-join's filtered fetches, 2 for the
	// semi-join fetches restricted to the names round 1 returned.
	Round int
	// EstDocs and EstCost are the planner's estimates for the step —
	// documents contributing bindings and stored bytes touched — from the
	// fragment's statistics; -1 when no statistics were available.
	EstDocs int64
	EstCost float64
	// IndexOnly marks a sub-query the node may answer from its indexes
	// alone: a count/exists/empty fold its compiled program asks the
	// engine to decide from the candidate list (exec.Program.Decides);
	// the node still declines when the list is not exact.
	IndexOnly bool
}

// Plan is the user-facing explanation of how a query would execute.
type Plan struct {
	Strategy    Strategy
	Collections []string
	Steps       []PlanStep
	// Skipped lists fragments the planner proved empty for the query
	// from their statistics; they are never contacted.
	Skipped []string
	// Cached reports whether the plan came from the plan cache.
	Cached bool
}

// Explain plans a query without executing it. It goes through the plan
// cache, so explaining a query both reports whether its plan was already
// cached and warms the cache for a subsequent Query.
func (s *System) Explain(query string) (*Plan, error) {
	e, p, cached, err := s.cachedPlan(xquery.NormalizeQueryText(query), query)
	if err != nil {
		return nil, err
	}
	out := &Plan{
		Strategy:    p.strategy,
		Collections: xquery.CollectionNames(e),
		Skipped:     p.skipped,
		Cached:      cached,
	}
	for _, st := range p.steps {
		step := PlanStep{Fragment: st.fragment, Node: st.node, EstDocs: -1, EstCost: -1, Round: st.round}
		if est, ok := p.est[st.fragment]; ok {
			step.EstDocs, step.EstCost, step.IndexOnly = est.docs, est.cost, est.indexOnly
		}
		if st.expr != nil {
			step.Query = xquery.Format(st.expr)
		}
		if st.keep != nil {
			step.Keep = st.keep.String()
		}
		if st.where != nil {
			step.Where = xquery.Format(st.where)
		}
		out.Steps = append(out.Steps, step)
	}
	return out, nil
}

// touchedFragments returns the fragments the query's reads reach.
func touchedFragments(meta *CollectionMeta, reads xquery.Reads) []*fragmentation.Fragment {
	if reads.Unresolved {
		return meta.Scheme.Fragments
	}
	var touched []*fragmentation.Fragment
	for _, f := range meta.Scheme.Fragments {
		for _, r := range reads.Paths {
			if r.Scan.Name == meta.Name && touchesFragment(f, r) {
				touched = append(touched, f)
				break
			}
		}
	}
	return touched
}

// unionable reports whether the touched fragments partition a repeating
// child and the query reads inside one child at a time: every read lies
// strictly below the siblings' projection path, and no filter is
// evaluated at or above it. A filter there — a predicate on an ancestor
// step, a positional filter counting the children, a where conjunct over
// an ancestor binding — would see only one sibling's children.
func unionable(meta *CollectionMeta, reads xquery.Reads, touched []*fragmentation.Fragment) bool {
	if reads.Unresolved {
		return false
	}
	var base []string
	for _, f := range touched {
		if f.Kind != fragmentation.Hybrid {
			return false
		}
		p := f.Labels
		if base == nil {
			base = p
		} else if !sameLabels(base, p) {
			return false
		}
	}
	for _, r := range reads.Paths {
		if r.Scan.Name != meta.Name {
			continue
		}
		q, _, descendant := readLabels(r.Steps)
		if descendant || len(q) <= len(base) || !labelsPrefix(base, q) {
			return false
		}
		if ctx, _, _ := readLabels(r.Context); r.Filtered && len(ctx) <= len(base) && labelsPrefix(ctx, base) {
			return false
		}
	}
	return true
}

// stripLabels is the path prefix a sub-query over fragment f drops: the
// projection path of a hybrid fragment materialized as independent
// documents (FragMode1), nil otherwise.
func stripLabels(meta *CollectionMeta, f *fragmentation.Fragment) []string {
	if f.Kind != fragmentation.Hybrid || meta.Mode != fragmentation.FragModeMD {
		return nil
	}
	return f.Labels
}

// holdsAllDocuments reports whether every document of the collection is
// guaranteed to yield an instance of the fragment: the scheme carries a
// schema and every step of the projection path is mandatory (min ≥ 1).
// Without a schema the answer is conservatively false.
func holdsAllDocuments(meta *CollectionMeta, f *fragmentation.Fragment) bool {
	sch := meta.Scheme.Schema
	if sch == nil || meta.Scheme.RootType == "" || f.Path == nil {
		return false
	}
	t := sch.Type(meta.Scheme.RootType)
	if t == nil {
		return false
	}
	steps := f.Path.Steps
	if len(steps) == 0 || steps[0].Name != t.ElementName() {
		return false
	}
	for _, st := range steps[1:] {
		p := t.Child(st.Name)
		if p == nil || p.Occurs.Min < 1 {
			return false
		}
		t = p.Type
	}
	return true
}

// memSource adapts in-memory collections to xquery.Source.
type memSource map[string]*xmltree.Collection

// Docs implements xquery.Source.
func (m memSource) Docs(name string, _ *xquery.Hint, fn func(*xmltree.Document) error) error {
	c, ok := m[name]
	if !ok {
		return fmt.Errorf("partix: no collection %q at coordinator", name)
	}
	for _, d := range c.Docs {
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

// Doc implements xquery.Source.
func (m memSource) Doc(name string) (*xmltree.Document, error) {
	for _, c := range m {
		if d := c.Doc(name); d != nil {
			return d, nil
		}
	}
	return nil, fmt.Errorf("partix: no document %q at coordinator", name)
}
