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
// predicate keys of a query for workload profiling (ExtractScanHints
// followed by Hints.WorkloadKeys).
func ExtractWorkloadKeys(e Expr) map[string]*WorkloadKeys {
	return ExtractScanHints(e).WorkloadKeys()
}

// WorkloadKeys renders the hints' constraints as workload keys, merged
// per collection: existence constraints become path keys, comparison and
// contains() constraints predicate keys — the constraints fragment
// pruning reads, so the profile counts what routing acts on.
func (h Hints) WorkloadKeys() map[string]*WorkloadKeys {
	out := map[string]*WorkloadKeys{}
	for scan, hint := range h {
		k := out[scan.Name]
		if k == nil {
			k = &WorkloadKeys{}
			out[scan.Name] = k
		}
		for _, c := range hint.Constraints {
			switch {
			case c.Path != nil && c.Path.Op == CmpExists:
				k.Paths = append(k.Paths, FormatLabelSteps(c.Path.Steps))
			case c.Path != nil:
				k.Predicates = append(k.Predicates,
					fmt.Sprintf("%s %s %q", FormatLabelSteps(c.Path.Steps), c.Path.Op, c.Path.Literal))
			}
			if c.Contains != nil {
				k.Predicates = append(k.Predicates,
					fmt.Sprintf("contains(%s, %q)", FormatLabelSteps(c.Contains.Steps), c.Contains.Needle))
			}
		}
	}
	for coll, k := range out {
		if len(k.Paths) == 0 && len(k.Predicates) == 0 {
			delete(out, coll)
			continue
		}
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
