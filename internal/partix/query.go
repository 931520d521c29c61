package partix

import (
	"errors"
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
	// StrategyReconstruct: the query needs several vertical fragments;
	// their documents are fetched, joined by ID (⨝) at the coordinator,
	// and the query is evaluated over the reconstructed collection.
	StrategyReconstruct Strategy = "reconstruct"
)

// QueryResult is the outcome of a distributed query execution, carrying
// the timing decomposition of the paper's methodology.
type QueryResult struct {
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
	// StreamedBytes is the serialized size of all sub-query partial
	// results.
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
	// Cached marks a result served from the coordinator result cache:
	// zero node round-trips, zero plan work. Sub, Trace and the timing
	// decomposition are empty — nothing was executed; PlanTime carries
	// the lookup + revalidation cost, TraceID is freshly minted so the
	// hit still correlates with its flight-recorder entry.
	Cached bool
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
// built from still hold. When the result cache is enabled
// (SetResultCacheBytes), a repeat whose touched generations also still
// hold skips execution too and is answered from memory.
func (s *System) Query(q string) (*QueryResult, error) {
	return s.QueryAs("", q)
}

// QueryAs is Query on behalf of a tenant: the tag selects the token
// bucket a SetTenantQuota policy debits. An empty tenant is its own
// bucket. Beyond quotas the serving path is identical to Query's —
// result cache first, then singleflight, then admission, then execution.
func (s *System) QueryAs(tenant, q string) (*QueryResult, error) {
	planStart := time.Now()
	if err := s.admitTenant(tenant); err != nil {
		return nil, err
	}
	norm := xquery.NormalizeQueryText(q)
	if res, ok := s.cachedResult(norm, planStart); ok {
		return res, nil
	}
	if s.resultCache.enabled() {
		// Singleflight: concurrent misses on one key run one upstream
		// execution. The leader executes and populates; followers wait,
		// re-check the cache, and only execute themselves if the leader
		// failed or its result was uncacheable.
		fl, leader := s.resultCache.beginFlight(norm)
		if leader {
			defer s.resultCache.endFlight(norm)
		} else {
			<-fl.done
			if res, ok := s.cachedResult(norm, planStart); ok {
				return res, nil
			}
		}
	}
	release, err := s.admission.acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	// The catalog version is read before plan resolution: a registration
	// racing with the execution leaves the cached result stamped with the
	// older version, so the next lookup discards it — stale in the safe
	// direction, exactly like the plan cache.
	version := s.catalog.Version()
	e, p, cached, err := s.cachedPlan(norm, q)
	if err != nil {
		s.recordPlanFailure(nil, norm, time.Since(planStart), err)
		return nil, err
	}
	// Generation stamps are captured before the sub-queries run: a write
	// landing during execution bumps the node's generation past the
	// stamp, so the entry dies on its first revalidation instead of
	// serving a half-updated result as current.
	var stamps stampSet
	cacheable := s.resultCache.enabled()
	if cacheable {
		stamps, cacheable = s.resultStamps(version, p)
	}
	res, err := s.run(e, p, time.Since(planStart), cached, norm)
	if err != nil {
		return nil, err
	}
	if cacheable {
		s.maybeCacheResult(norm, stamps, e, p, res)
	}
	return res, nil
}

// cachedResult answers a query from the result cache when a still-valid
// entry exists. A hit re-executes nothing: the stored merged items are
// returned with a fresh trace ID and the Cached marker, no replayed
// Sub/Trace spans, and only the lookup + revalidation time as PlanTime.
// Tracing bypasses the cache — a traced query exists to be executed.
func (s *System) cachedResult(norm string, planStart time.Time) (*QueryResult, bool) {
	rc := s.resultCache
	if !rc.enabled() || s.Tracing() {
		return nil, false
	}
	entry, ok := rc.get(norm)
	if ok && !s.stampsCurrent(entry.stampSet) {
		rc.remove(norm)
		obs.CoordResultCacheInvalidations.Inc()
		ok = false
	}
	if !ok {
		obs.CoordResultCacheMisses.Inc()
		return nil, false
	}
	obs.CoordResultCacheHits.Inc()
	elapsed := time.Since(planStart)
	res := &QueryResult{
		Items:            entry.items,
		Strategy:         entry.strategy,
		Fragments:        entry.fragments,
		SkippedFragments: entry.skipped,
		Cached:           true,
		TraceID:          obs.NewTraceID(),
		PlanTime:         elapsed,
	}
	obs.CoordQueries.Inc()
	obs.CoordQuerySeconds.Observe(elapsed.Seconds())
	s.recordCachedHit(entry, norm, res.TraceID, elapsed)
	return res, true
}

// resultStamps stamps a result about to be computed: the plan's stamps —
// every fragment whose statistics the planner consulted, the ones it
// skipped included — plus the current generation of every fragment the
// plan contacts or fetches. The second return is false when any stamped
// fragment provides no statistics: without a generation to watch, a
// mutation there would be invisible, so the result must not be cached.
func (s *System) resultStamps(version uint64, p *queryPlan) (stampSet, bool) {
	for _, st := range p.stamps {
		if !st.has {
			return stampSet{}, false
		}
	}
	type pair struct{ node, collection string }
	var pairs []pair
	switch {
	case len(p.metas) > 0:
		for _, meta := range p.metas {
			for frag, node := range meta.Placement {
				pairs = append(pairs, pair{node, meta.NodeCollection(frag)})
			}
		}
	case len(p.reconstruct) > 0:
		for _, f := range p.reconstruct {
			pairs = append(pairs, pair{p.meta.Placement[f.Name], p.meta.NodeCollection(f.Name)})
		}
	default:
		for _, fq := range p.subQueries {
			pairs = append(pairs, pair{fq.node, p.meta.NodeCollection(fq.fragment)})
		}
	}
	stamps := make([]genStamp, len(p.stamps), len(p.stamps)+len(pairs))
	copy(stamps, p.stamps)
	for _, pr := range pairs {
		cur := s.nodeStatistics(pr.node, pr.collection)
		if cur == nil {
			return stampSet{}, false
		}
		stamps = append(stamps, genStamp{node: pr.node, collection: pr.collection, gen: cur.Generation, has: true})
	}
	return stampSet{catalogVersion: version, stamps: stamps}, true
}

// maybeCacheResult populates the result cache after a successful
// execution, if the result is eligible: not an exists/empty decider
// (already index-only fast and size-trivial — not worth a slot), not
// traced, and the accounted size within the per-entry cap of
// budget/resultEntryFraction — the bound on what the cache may retain of
// any one answer. Eligibility is a property of the result, never of the
// route that produced it.
func (s *System) maybeCacheResult(norm string, stamps stampSet, e xquery.Expr, p *queryPlan, res *QueryResult) {
	if res.Trace != nil {
		return
	}
	if _, decider := topLevelDecider(e); decider {
		return
	}
	rc := s.resultCache
	bytes := resultEntryBytes(norm, res.Items)
	if bytes > rc.budget()/resultEntryFraction {
		return
	}
	rc.put(norm, &resultEntry{
		stampSet:  stamps,
		items:     res.Items,
		strategy:  res.Strategy,
		fragments: res.Fragments,
		skipped:   res.SkippedFragments,
		work:      p.work,
	}, bytes)
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
	p.work = xquery.ExtractWorkloadKeys(e)
	return s.run(e, p, time.Since(planStart), false, "")
}

// cachedPlan resolves the compiled plan for a query: a still-valid cache
// entry is reused outright (no parse, no planning); a missing or stale
// one falls through to parse + plan, and the fresh plan is cached for
// the next request.
func (s *System) cachedPlan(norm, raw string) (xquery.Expr, *queryPlan, bool, error) {
	if entry, ok := s.planCache.get(norm); ok {
		if s.stampsCurrent(entry.stampSet) {
			obs.CoordPlanCacheHits.Inc()
			return entry.expr, entry.plan, true, nil
		}
		s.planCache.remove(norm)
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
	// Workload keys are mined at plan time and live on the immutable
	// plan, so a plan-cache hit feeds the profiler without re-walking
	// the expression.
	p.work = xquery.ExtractWorkloadKeys(e)
	s.planCache.put(norm, &planEntry{stampSet: stampSet{catalogVersion: version, stamps: p.stamps}, expr: e, plan: p}, 1)
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

// queryPlan is the outcome of planning: what runs where. Plans are
// immutable once built — the plan cache hands the same plan to every
// repeat of the query.
type queryPlan struct {
	strategy Strategy
	meta     *CollectionMeta // single-collection plans
	metas    []*CollectionMeta
	// subQueries is set for centralized/routed/union/aggregate plans.
	subQueries []fragQuery
	// reconstruct lists the fragments to fetch and join, smallest
	// estimated side first when statistics were available.
	reconstruct []*fragmentation.Fragment
	// prog, when set, composes a reconstruction: the query compiled once
	// at plan time and run over the joined documents (shared by every
	// execution of a cached plan; each run keeps its state to itself).
	// keeps then holds, per reconstruct entry, the projection its fetch
	// ships — nil for a fragment fetched whole. Without prog the
	// fragments are fetched whole and the interpreter composes.
	prog  *exec.Program
	keeps []*xmltree.Projection
	// emptyRoute marks a query contradicting every fragment.
	emptyRoute bool
	// skipped lists fragments statistics proved empty for this query.
	skipped []string
	// stamps records the statistics snapshots planning consulted; the
	// plan cache revalidates them before reusing the plan, and a cached
	// result of the plan carries them too.
	stamps []genStamp
	// est holds the planner's per-fragment estimates for Explain.
	est map[string]planEstimate
	// work holds the query's canonical workload keys (paths and
	// predicates per collection), mined once at plan time for the
	// workload profiler.
	work map[string]*xquery.WorkloadKeys
}

// planQuery analyzes the query and decides the execution strategy.
func (s *System) planQuery(e xquery.Expr) (*queryPlan, error) {
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
		return &queryPlan{strategy: StrategyReconstruct, metas: metas}, nil
	}

	meta := metas[0]
	if !meta.Fragmented() {
		p := &queryPlan{
			strategy:   StrategyCentralized,
			meta:       meta,
			subQueries: []fragQuery{{fragment: "", node: meta.Placement[""], replicas: meta.Replicas[""], expr: e}},
		}
		if sp := s.newStatsPlan(e, meta); sp != nil {
			st := s.fragmentStatistics(meta, "")
			sp.stamp(meta, "", st)
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
		sp := s.newStatsPlan(e, meta)
		return sp.apply(&queryPlan{
			strategy:    StrategyReconstruct,
			meta:        meta,
			reconstruct: s.orderReconstruct(sp, meta, meta.Scheme.Fragments),
		}), nil
	}

	an := analyzeQuery(e)
	if meta.Scheme.AllHorizontal() {
		return s.planHorizontal(e, meta, an)
	}
	p, err := s.planVertical(e, meta, an)
	if err == nil && len(p.reconstruct) > 0 {
		compileReconstruct(e, p)
	}
	return p, err
}

// compileReconstruct compiles a reconstruction plan's query for its
// composition and derives each fetch's projection from the program's: a
// fragment the query reads whole is fetched as stored, any other ships
// only what the program reads. A query outside the compiled subset keeps
// whole fetches and the interpreter.
func compileReconstruct(e xquery.Expr, p *queryPlan) {
	prog, ok := exec.Compile(e)
	if !ok {
		return
	}
	p.prog = prog
	p.keeps = make([]*xmltree.Projection, len(p.reconstruct))
	keep := prog.Keep()
	for i, f := range p.reconstruct {
		p.keeps[i] = fetchProjection(keep, f)
	}
}

// fetchProjection is the projection a fetch of fragment f ships for a
// query reading keep: nil when the walk down f's path reaches a node kept
// whole (the stored records go out as they are), keep itself otherwise.
// The whole trie is sound to ship: over a fragment's documents — its
// subtree under the replicated spine — it selects exactly the part of f
// the query reads.
func fetchProjection(keep *xmltree.Projection, f *fragmentation.Fragment) *xmltree.Projection {
	labels := pathLabels(f.Path)
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

// fetchKeep is the projection the i-th reconstruction fetch ships, nil
// for a whole fetch.
func (p *queryPlan) fetchKeep(i int) *xmltree.Projection {
	if p.keeps == nil {
		return nil
	}
	return p.keeps[i]
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

// planHorizontal prunes fragments whose predicate contradicts the query,
// skips fragments whose statistics prove them empty for the query, and
// targets the rewritten query at the remainder.
func (s *System) planHorizontal(e xquery.Expr, meta *CollectionMeta, an *analysis) (*queryPlan, error) {
	sp := s.newStatsPlan(e, meta)
	var relevant []*fragmentation.Fragment
	for _, f := range meta.Scheme.Fragments {
		if len(an.constraints) > 0 && contradictsPredicate(f.Predicate, nil, an.constraints, meta.Name) {
			continue
		}
		if sp != nil && s.skipFragment(sp, meta, f) {
			continue
		}
		relevant = append(relevant, f)
	}
	if len(relevant) == 0 {
		// The query contradicts (or statistics prove empty) every
		// fragment: empty result, but an aggregate still needs its zero
		// value, so evaluate over nothing.
		return sp.apply(&queryPlan{strategy: StrategyRouted, meta: meta, emptyRoute: true}), nil
	}
	plan := &queryPlan{meta: meta}
	shipped := e
	if len(relevant) > 1 {
		shipped = rewriteAggregateForFragments(e)
	}
	for _, f := range relevant {
		sub, err := rewriteForFragment(shipped, meta.Name, meta.NodeCollection(f.Name), nil)
		if err != nil {
			return nil, err
		}
		plan.subQueries = append(plan.subQueries, fragQuery{fragment: f.Name, node: meta.Placement[f.Name], replicas: meta.Replicas[f.Name], expr: sub})
	}
	plan.strategy = unionOrAggregate(e, len(relevant))
	sp.apply(plan)
	annotateIndexOnly(sp, plan)
	return plan, nil
}

// planVertical routes to one fragment when possible, unions across
// sibling hybrid fragments when the query is item-scoped, and falls back
// to join reconstruction otherwise.
func (s *System) planVertical(e xquery.Expr, meta *CollectionMeta, an *analysis) (*queryPlan, error) {
	sp := s.newStatsPlan(e, meta)
	touched := s.touchedFragments(meta, an)
	if len(touched) == 0 && !an.unresolved {
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
	// Vertical and hybrid fragments hold projections whose local paths
	// diverge from the global document shape, so statistics only feed the
	// reconstruction fetch order here — never fragment skipping.
	reconstructPlan := sp.apply(&queryPlan{strategy: StrategyReconstruct, meta: meta,
		reconstruct: s.orderReconstruct(sp, meta, touched)})
	if len(touched) == 1 {
		f := touched[0]
		// Documents where the projection selects nothing are absent from
		// the fragment; if the query iterates an ancestor of the
		// projection root, those documents' bindings would silently
		// disappear — unless the schema guarantees the path is mandatory.
		if ancestorExistenceOf(an, meta.Name, f) && !holdsAllDocuments(meta, f) {
			return reconstructPlan, nil
		}
		strip, err := s.stripLabels(meta, f)
		if err != nil {
			return nil, err
		}
		sub, err := rewriteForFragment(e, meta.Name, meta.NodeCollection(f.Name), strip)
		if err != nil {
			return reconstructPlan, nil
		}
		return &queryPlan{
			strategy:   StrategyRouted,
			meta:       meta,
			subQueries: []fragQuery{{fragment: f.Name, node: meta.Placement[f.Name], replicas: meta.Replicas[f.Name], expr: sub}},
		}, nil
	}

	// Union is sound when all touched fragments are hybrid siblings (same
	// projection path) and every query path stays strictly inside the
	// repeating children — the query then treats the children as an MD
	// collection partitioned by the σ predicates.
	if s.unionable(meta, an, touched) {
		plan := &queryPlan{meta: meta}
		shipped := e
		if len(touched) > 1 {
			shipped = rewriteAggregateForFragments(e)
		}
		for _, f := range touched {
			strip, err := s.stripLabels(meta, f)
			if err != nil {
				return nil, err
			}
			sub, err := rewriteForFragment(shipped, meta.Name, meta.NodeCollection(f.Name), strip)
			if err != nil {
				return reconstructPlan, nil
			}
			plan.subQueries = append(plan.subQueries, fragQuery{fragment: f.Name, node: meta.Placement[f.Name], replicas: meta.Replicas[f.Name], expr: sub})
		}
		plan.strategy = unionOrAggregate(e, len(touched))
		return plan, nil
	}
	return reconstructPlan, nil
}

// unionOrAggregate picks the composition for a multi-fragment broadcast.
func unionOrAggregate(e xquery.Expr, fragments int) Strategy {
	if fragments == 1 {
		return StrategyRouted
	}
	if _, ok := topLevelAggregate(e); ok {
		return StrategyAggregate
	}
	if _, ok := topLevelDecider(e); ok {
		return StrategyAggregate
	}
	return StrategyUnion
}

// executePlan runs a plan and assembles the measured result. tag is the
// correlation identifier stamped on sub-queries; trace asks the nodes for
// their processing-step spans. Neither changes how the plan executes.
func (s *System) executePlan(e xquery.Expr, p *queryPlan, tag string, trace bool) (*QueryResult, error) {
	switch {
	case p.emptyRoute:
		return s.evalLocal(e, StrategyRouted, nil,
			map[string]*xmltree.Collection{p.meta.Name: xmltree.NewCollection(p.meta.Name)}, nil)
	case len(p.metas) > 0:
		return s.reconstructAndEval(e, p.metas)
	case len(p.reconstruct) > 0:
		return s.reconstructFragments(e, p)
	default:
		return s.executeSubQueries(e, p.subQueries, p.strategy, tag, trace)
	}
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
	// EstDocs and EstCost are the planner's estimates for the step —
	// documents contributing bindings and stored bytes touched — from the
	// fragment's statistics; -1 when no statistics were available.
	EstDocs int64
	EstCost float64
	// IndexOnly marks a sub-query the node can answer from its indexes
	// alone (a count/exists/empty probe shape).
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
	estFor := func(fragment string) (int64, float64, bool) {
		if est, ok := p.est[fragment]; ok {
			return est.docs, est.cost, est.indexOnly
		}
		return -1, -1, false
	}
	switch {
	case p.emptyRoute:
		// Nothing to do: the predicates contradict every fragment.
	case len(p.metas) > 0:
		for _, meta := range p.metas {
			for frag, node := range meta.Placement {
				out.Steps = append(out.Steps, PlanStep{Fragment: frag, Node: node, EstDocs: -1, EstCost: -1})
			}
		}
	case len(p.reconstruct) > 0:
		for i, f := range p.reconstruct {
			docs, cost, _ := estFor(f.Name)
			step := PlanStep{Fragment: f.Name, Node: p.meta.Placement[f.Name], EstDocs: docs, EstCost: cost}
			if keep := p.fetchKeep(i); keep != nil {
				step.Keep = keep.String()
			}
			out.Steps = append(out.Steps, step)
		}
	default:
		for _, fq := range p.subQueries {
			docs, cost, ixOnly := estFor(fq.fragment)
			out.Steps = append(out.Steps, PlanStep{
				Fragment: fq.fragment, Node: fq.node, Query: xquery.Format(fq.expr),
				EstDocs: docs, EstCost: cost, IndexOnly: ixOnly,
			})
		}
	}
	return out, nil
}

// touchedFragments returns the fragments the query's paths reach, with
// hybrid fragments additionally pruned by predicate contradiction.
func (s *System) touchedFragments(meta *CollectionMeta, an *analysis) []*fragmentation.Fragment {
	var touched []*fragmentation.Fragment
	for _, f := range meta.Scheme.Fragments {
		if !an.unresolved {
			reached := false
			for _, qp := range an.paths {
				if qp.collection == meta.Name && touchesFragment(f, qp) {
					reached = true
					break
				}
			}
			if !reached {
				continue
			}
		}
		if f.Kind == fragmentation.Hybrid && len(an.constraints) > 0 &&
			contradictsPredicate(f.Predicate, pathLabels(f.Path), an.constraints, meta.Name) {
			continue
		}
		touched = append(touched, f)
	}
	return touched
}

// unionable reports whether the touched fragments partition a repeating
// child and the query stays inside those children.
func (s *System) unionable(meta *CollectionMeta, an *analysis, touched []*fragmentation.Fragment) bool {
	if an.unresolved {
		return false
	}
	var base []string
	for _, f := range touched {
		if f.Kind != fragmentation.Hybrid {
			return false
		}
		p := pathLabels(f.Path)
		if base == nil {
			base = p
		} else if !sameLabels(base, p) {
			return false
		}
	}
	for _, qp := range an.paths {
		if qp.collection != meta.Name {
			continue
		}
		if qp.descendant || len(qp.labels) <= len(base) || !labelsPrefix(base, qp.labels) {
			return false
		}
	}
	return true
}

func (s *System) stripLabels(meta *CollectionMeta, f *fragmentation.Fragment) ([]string, error) {
	if f.Kind != fragmentation.Hybrid || meta.Mode != fragmentation.FragModeMD {
		return nil, nil
	}
	return pathLabels(f.Path), nil
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

// reconstructFragments fetches the plan's fragments, each cut down to its
// fetch projection at the node, joins them by ID in place and composes
// the answer over the joined documents: through the plan's compiled
// program when it has one, the interpreter otherwise.
func (s *System) reconstructFragments(e xquery.Expr, p *queryPlan) (*QueryResult, error) {
	meta := p.meta
	if meta.Mode == fragmentation.FragModeMD {
		return nil, fmt.Errorf("partix: query needs %d fragments of %q but FragMode1 documents cannot be joined back", len(p.reconstruct), meta.Name)
	}
	res := &QueryResult{Strategy: StrategyReconstruct}
	parts := make([]*xmltree.Collection, 0, len(p.reconstruct))
	for i, f := range p.reconstruct {
		col, err := s.fetchWithFailover(meta, f.Name, p.fetchKeep(i), res)
		if err != nil {
			return nil, err
		}
		res.Fragments = append(res.Fragments, f.Name)
		parts = append(parts, col)
	}
	start := time.Now()
	merged, err := meta.Scheme.Reconstruct(parts)
	if err != nil {
		return nil, fmt.Errorf("partix: reconstruction of %q failed: %w", meta.Name, err)
	}
	src := memSource{meta.Name: merged}
	var items xquery.Seq
	if p.prog != nil {
		items, err = p.prog.Run(src)
	} else {
		items, err = xquery.Eval(e, src)
	}
	if err != nil {
		return nil, err
	}
	res.ComposeTime = time.Since(start)
	res.Items = items
	return res, nil
}

// fetchWithFailover retrieves a fragment's collection, cut down to keep,
// from its primary node, falling back to replicas when the primary fails,
// and accounts the fetch in res as one site: a SubTiming sized at the
// fetched documents' XML bytes, slowest-site ParallelTime, modeled
// transmission. When every copy fails, the error names each node tried
// with its own failure.
func (s *System) fetchWithFailover(meta *CollectionMeta, fragment string, keep *xmltree.Projection, res *QueryResult) (*xmltree.Collection, error) {
	names := append([]string{meta.Placement[fragment]}, meta.Replicas[fragment]...)
	var errs []error
	for _, name := range names {
		node := s.Node(name)
		if node == nil {
			errs = append(errs, fmt.Errorf("unknown node %q", name))
			continue
		}
		start := time.Now()
		col, err := node.Fetch(meta.NodeCollection(fragment), keep)
		elapsed := time.Since(start)
		if err != nil {
			errs = append(errs, fmt.Errorf("node %s: %w", name, err))
			continue
		}
		bytes := 0
		for _, d := range col.Docs {
			bytes += xmltree.SerializedSize(d)
		}
		res.Sub = append(res.Sub, SubTiming{Fragment: fragment, Node: name, Elapsed: elapsed, ResultBytes: bytes, Items: col.Len()})
		if elapsed > res.ParallelTime {
			res.ParallelTime = elapsed
		}
		res.TransmissionTime += s.cost.Transmission(bytes) + s.cost.MessageLatency
		return col, nil
	}
	return nil, fmt.Errorf("partix: fetch of fragment %q failed on all %d copies: %w",
		fragment, len(names), errors.Join(errs...))
}

// reconstructAndEval handles multi-collection queries: every referenced
// collection is materialized at the coordinator and the query evaluated
// locally.
func (s *System) reconstructAndEval(e xquery.Expr, metas []*CollectionMeta) (*QueryResult, error) {
	res := &QueryResult{Strategy: StrategyReconstruct}
	src := memSource{}
	for _, meta := range metas {
		col, err := s.fetchWhole(meta, res)
		if err != nil {
			return nil, err
		}
		src[meta.Name] = col
	}
	start := time.Now()
	items, err := xquery.Eval(e, src)
	if err != nil {
		return nil, err
	}
	res.ComposeTime = time.Since(start)
	res.Items = items
	return res, nil
}

// fetchWhole materializes one whole collection at the coordinator: the
// single copy of an unfragmented collection, or every fragment joined
// back together.
func (s *System) fetchWhole(meta *CollectionMeta, res *QueryResult) (*xmltree.Collection, error) {
	if !meta.Fragmented() {
		return s.fetchWithFailover(meta, "", nil, res)
	}
	var parts []*xmltree.Collection
	for _, f := range meta.Scheme.Fragments {
		col, err := s.fetchWithFailover(meta, f.Name, nil, res)
		if err != nil {
			return nil, err
		}
		parts = append(parts, col)
	}
	merged, err := meta.Scheme.Reconstruct(parts)
	if err != nil {
		return nil, err
	}
	merged.Name = meta.Name
	return merged, nil
}

// evalLocal evaluates the query over in-memory collections (used for the
// degenerate no-fragment case).
func (s *System) evalLocal(e xquery.Expr, strategy Strategy, frags []string, cols map[string]*xmltree.Collection, subs []SubTiming) (*QueryResult, error) {
	start := time.Now()
	items, err := xquery.Eval(e, memSource(cols))
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Items: items, Strategy: strategy, Fragments: frags, Sub: subs,
		ComposeTime: time.Since(start),
	}, nil
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
