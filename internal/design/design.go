// Package design implements the fragmentation-design methodology the
// paper leaves as future work ("we intend to use the proposed
// fragmentation model to define a methodology for fragmenting XML
// databases … and to implement tools to automate this fragmentation
// process"). It proposes correct-by-construction schemes from a workload:
//
//   - ProposeHorizontal adapts the classical min-term predicate method of
//     relational distribution design (Özsu & Valduriez, the paper's [15]):
//     the simple predicates of the workload partition the documents into
//     min-term groups, which are merged to the requested fragment count;
//     a catch-all min-term keeps the design complete for unseen documents.
//   - ProposeVertical adapts attribute-affinity clustering: the top-level
//     subtrees of the document root are clustered by how often queries use
//     them together, one fragment per subtree plus an anchor fragment that
//     keeps the root and everything unclaimed.
//   - Allocate places fragments on nodes, balancing bytes.
//
// Every proposed scheme passes the Section 3.3 correctness rules by
// construction; callers can (and the tests do) verify with Scheme.Check.
package design

import (
	"fmt"
	"sort"

	"partix/internal/algebra"
	"partix/internal/fragmentation"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// WorkloadQuery is one query of the design workload with its relative
// frequency.
type WorkloadQuery struct {
	Text   string
	Weight int
}

// weight returns the query's weight, defaulting to 1.
func (q WorkloadQuery) weight() int {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// --- horizontal design ---

// HorizontalOptions tune ProposeHorizontal.
type HorizontalOptions struct {
	// MaxFragments bounds the design size (default 4).
	MaxFragments int
	// MaxPredicates bounds how many distinct simple predicates are used,
	// most frequent first (default 6) — min-terms grow with predicate
	// count.
	MaxPredicates int
}

func (o HorizontalOptions) withDefaults() HorizontalOptions {
	if o.MaxFragments <= 0 {
		o.MaxFragments = 4
	}
	if o.MaxPredicates <= 0 {
		o.MaxPredicates = 6
	}
	return o
}

// group is one min-term: the documents sharing a predicate-satisfaction
// vector.
type group struct {
	vector string
	preds  []xquery.Expr // the min-term conjunction
	docs   int
}

// ProposeHorizontal derives a horizontal fragmentation of c from the
// workload's simple predicates.
func ProposeHorizontal(c *xmltree.Collection, queries []WorkloadQuery, opts HorizontalOptions) (*fragmentation.Scheme, error) {
	opts = opts.withDefaults()
	if c.Len() == 0 {
		return nil, fmt.Errorf("design: empty collection %q", c.Name)
	}
	preds := relevantPredicates(c.Name, queries, opts.MaxPredicates)
	if len(preds) == 0 {
		return nil, fmt.Errorf("design: workload has no usable simple predicates over %q", c.Name)
	}

	// Partition documents by their predicate-satisfaction vector: each
	// distinct vector is a (non-empty) min-term fragment.
	groups := map[string]*group{}
	for _, d := range c.Docs {
		key := make([]byte, len(preds))
		for i, p := range preds {
			if algebra.Holds(p, d.Root) {
				key[i] = '1'
			} else {
				key[i] = '0'
			}
		}
		g := groups[string(key)]
		if g == nil {
			g = &group{vector: string(key), preds: minterm(preds, string(key))}
			groups[string(key)] = g
		}
		g.docs++
	}

	ordered := make([]*group, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].vector < ordered[j].vector })

	// Merge groups until the design fits MaxFragments. Predicates are
	// ordered by workload weight, so vectors agreeing on a long prefix
	// agree on the hottest predicates: preferring such pairs keeps heavy
	// predicates "pure" (the queries using them stay routable to a single
	// fragment). Ties break toward the smallest combined size.
	buckets := make([][]*group, len(ordered))
	for i, g := range ordered {
		buckets[i] = []*group{g}
	}
	for len(buckets) > opts.MaxFragments {
		bi, bj := 0, 1
		bestPrefix, bestDocs := -1, 0
		for i := 0; i < len(buckets); i++ {
			for j := i + 1; j < len(buckets); j++ {
				p := bucketPrefix(buckets[i], buckets[j])
				docs := bucketDocs(buckets[i]) + bucketDocs(buckets[j])
				if p > bestPrefix || (p == bestPrefix && docs < bestDocs) {
					bi, bj, bestPrefix, bestDocs = i, j, p, docs
				}
			}
		}
		merged := append(append([]*group{}, buckets[bi]...), buckets[bj]...)
		next := [][]*group{merged}
		for k, b := range buckets {
			if k != bi && k != bj {
				next = append(next, b)
			}
		}
		buckets = next
	}
	sort.Slice(buckets, func(i, j int) bool { return bucketDocs(buckets[i]) > bucketDocs(buckets[j]) })

	// The observed min-terms may not cover future documents: add the
	// catch-all complement (¬m1 ∧ … is equivalent to ¬(m1 ∨ …)) to the
	// smallest fragment, keeping the design complete by construction.
	var seen []xquery.Expr
	for _, g := range ordered {
		seen = append(seen, andOf(g.preds))
	}
	catchAll := notOf(orOf(seen))

	scheme := &fragmentation.Scheme{Collection: c.Name}
	for i, bucket := range buckets {
		var terms []xquery.Expr
		for _, g := range bucket {
			terms = append(terms, andOf(g.preds))
		}
		if i == len(buckets)-1 {
			terms = append(terms, catchAll)
		}
		scheme.Fragments = append(scheme.Fragments, &fragmentation.Fragment{
			Name:      fmt.Sprintf("F%d", i+1),
			Kind:      fragmentation.Horizontal,
			Predicate: orOf(terms),
		})
	}
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	return scheme, nil
}

func bucketDocs(b []*group) int {
	total := 0
	for _, g := range b {
		total += g.docs
	}
	return total
}

// bucketPrefix is the shortest common vector prefix across the two
// buckets' min-terms.
func bucketPrefix(a, b []*group) int {
	best := -1
	for _, ga := range a {
		for _, gb := range b {
			p := commonPrefix(ga.vector, gb.vector)
			if best == -1 || p < best {
				best = p
			}
		}
	}
	return best
}

func commonPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// minterm builds the conjunction for a satisfaction vector: p_i when
// vector[i] is '1', not(p_i) otherwise.
func minterm(preds []xquery.Expr, vector string) []xquery.Expr {
	out := make([]xquery.Expr, len(preds))
	for i, p := range preds {
		if vector[i] == '1' {
			out[i] = p
		} else {
			out[i] = negate(p)
		}
	}
	return out
}

// negate builds the complement of a simple predicate, using the
// comparison complement where possible so the output stays analyzable by
// the query service's pruning.
func negate(p xquery.Expr) xquery.Expr {
	if cmp, ok := p.(*xquery.Binary); ok {
		if op, ok := complement[cmp.Op]; ok {
			return &xquery.Binary{Op: op, Left: cmp.Left, Right: cmp.Right}
		}
	}
	return notOf(p)
}

// complement maps each comparison operator to the one true exactly when
// it is false on a single value (Figure 2(a): F2CD selects Section != "CD").
var complement = map[xquery.BinaryOp]xquery.BinaryOp{
	xquery.OpEq: xquery.OpNe, xquery.OpNe: xquery.OpEq,
	xquery.OpLt: xquery.OpGe, xquery.OpGe: xquery.OpLt,
	xquery.OpGt: xquery.OpLe, xquery.OpLe: xquery.OpGt,
}

func notOf(p xquery.Expr) xquery.Expr {
	return &xquery.FuncCall{Name: "not", Args: []xquery.Expr{p}}
}

func andOf(terms []xquery.Expr) xquery.Expr { return chain(xquery.OpAnd, terms) }

func orOf(terms []xquery.Expr) xquery.Expr { return chain(xquery.OpOr, terms) }

// chain joins one or more terms with op, left to right.
func chain(op xquery.BinaryOp, terms []xquery.Expr) xquery.Expr {
	out := terms[0]
	for _, t := range terms[1:] {
		out = &xquery.Binary{Op: op, Left: out, Right: t}
	}
	return out
}

// relevantPredicates extracts the workload's simple predicates over the
// collection, most frequent first.
func relevantPredicates(collection string, queries []WorkloadQuery, limit int) []xquery.Expr {
	counts := map[string]int{}
	byKey := map[string]xquery.Expr{}
	for _, wq := range queries {
		e, err := xquery.Parse(wq.Text)
		if err != nil {
			continue
		}
		for _, p := range simplePredicates(e, collection) {
			key := xquery.FormatDefinition(p)
			counts[key] += wq.weight()
			byKey[key] = p
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]xquery.Expr, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}
