package xquery

import (
	"fmt"
	"sort"
	"strings"
)

// WorkloadKeys are the canonical strings the workload profiler counts
// for one collection: the label paths a query binds or tests, and its
// literal predicates. The key grammar is stable and design-consumable:
//
//	path:       /Item/Section        //Keyword       /Item/@id
//	predicate:  /Item/Section = "CD"
//	            /Item/Quantity >= "5"
//	            contains(/Item/Description, "good")
//
// internal/design parses the equality and contains forms back into
// fragmentation predicates (see design.WorkloadFromProfile).
type WorkloadKeys struct {
	Paths      []string
	Predicates []string
}

// FormatLabelSteps renders a label-path pattern in surface syntax.
func FormatLabelSteps(steps []LabelStep) string {
	var b strings.Builder
	for _, st := range steps {
		if st.Descendant {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		if st.Attr {
			b.WriteString("@")
		}
		b.WriteString(st.Name)
	}
	return b.String()
}

// ExtractWorkloadKeys derives, per collection, the canonical path and
// predicate keys of a query for workload profiling. It reuses the hint
// extractor's analysis (binding paths become path keys, comparison
// terms become predicate keys) and adds the path side of contains()
// terms, which hints deliberately drop (a substring constraint needs no
// path to prune, but the profiler wants to know which path is probed).
func ExtractWorkloadKeys(e Expr) map[string]*WorkloadKeys {
	out := map[string]*WorkloadKeys{}
	get := func(coll string) *WorkloadKeys {
		k := out[coll]
		if k == nil {
			k = &WorkloadKeys{}
			out[coll] = k
		}
		return k
	}
	for coll, h := range ExtractHints(e) {
		for _, c := range h.Constraints {
			if c.Path == nil {
				continue
			}
			ps := FormatLabelSteps(c.Path.Steps)
			if c.Path.Op == CmpExists {
				get(coll).Paths = append(get(coll).Paths, ps)
			} else {
				get(coll).Predicates = append(get(coll).Predicates,
					fmt.Sprintf("%s %s %q", ps, c.Path.Op, c.Path.Literal))
			}
		}
	}
	collectContainsKeys(e, func(coll, path, needle string) {
		get(coll).Predicates = append(get(coll).Predicates,
			fmt.Sprintf("contains(%s, %q)", path, needle))
	})
	for _, k := range out {
		k.Paths = dedupeSorted(k.Paths)
		k.Predicates = dedupeSorted(k.Predicates)
	}
	return out
}

func dedupeSorted(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// collectContainsKeys walks every FLWOR for conjunctive contains()
// terms whose path side roots at a collection-bound for-variable (or at
// a binding-path step predicate's context) and reports the resolved
// root-anchored path plus the needle.
func collectContainsKeys(e Expr, fn func(coll, path, needle string)) {
	Walk(e, func(x Expr) {
		f, ok := x.(*FLWOR)
		if !ok {
			return
		}
		varColl := map[string]varBinding{}
		for _, cl := range f.Clauses {
			if cl.Let {
				continue
			}
			coll, steps, ok := collectionRooted(cl.In)
			if !ok {
				continue
			}
			ls, lsOK := toLabelSteps(steps)
			varColl[cl.Var] = varBinding{coll: coll, steps: ls, pathOK: lsOK}
			for si, st := range steps {
				ctxSteps, ctxOK := toLabelSteps(steps[: si+1 : si+1])
				ctx := predCtx{steps: ctxSteps, ok: ctxOK}
				for _, p := range st.Preds {
					Conjuncts(p, func(term Expr) {
						containsKeyFromTerm(term, coll, varColl, ctx, fn)
					})
				}
			}
		}
		if f.Where == nil || len(varColl) == 0 {
			return
		}
		Conjuncts(f.Where, func(term Expr) {
			containsKeyFromTerm(term, "", varColl, predCtx{}, fn)
		})
	})
}

// containsKeyFromTerm matches contains(<path>, "lit"). predColl names
// the collection when the term sits inside a binding-path step
// predicate; empty means a where-clause term, whose collection resolves
// through the for-variable the path roots at.
func containsKeyFromTerm(term Expr, predColl string, varColl map[string]varBinding, ctx predCtx, fn func(coll, path, needle string)) {
	fc, ok := term.(*FuncCall)
	if !ok || fc.Name != "contains" || len(fc.Args) != 2 {
		return
	}
	lit, ok := fc.Args[1].(*StringLit)
	if !ok {
		return
	}
	coll := predColl
	if coll == "" {
		var name string
		switch src := fc.Args[0].(type) {
		case *VarRef:
			name = src.Name
		case *PathExpr:
			v, isVar := src.Source.(*VarRef)
			if !isVar {
				return
			}
			name = v.Name
		default:
			return
		}
		vb, known := varColl[name]
		if !known {
			return
		}
		coll = vb.coll
	}
	ls, ok := termLabelSteps(fc.Args[0], varColl, ctx)
	if !ok || len(ls) == 0 {
		return
	}
	fn(coll, FormatLabelSteps(ls), lit.Value)
}
