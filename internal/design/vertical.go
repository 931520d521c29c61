package design

import (
	"fmt"
	"sort"

	"partix/internal/fragmentation"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// VerticalOptions tune ProposeVertical.
type VerticalOptions struct {
	// MaxFragments bounds the number of clusters (default 3).
	MaxFragments int
}

func (o VerticalOptions) withDefaults() VerticalOptions {
	if o.MaxFragments <= 0 {
		o.MaxFragments = 3
	}
	return o
}

// VerticalAdvice is a proposed vertical design plus the colocation groups
// Allocate should respect: fragments in the same group were clustered
// together by query affinity and belong on the same node.
type VerticalAdvice struct {
	Scheme *fragmentation.Scheme
	// Groups maps fragment name → cluster index.
	Groups map[string]int
}

// ProposeVertical derives a vertical fragmentation of c: the top-level
// children of the document root are clustered by how often the workload's
// queries use them together (attribute-affinity clustering, adapted from
// relational vertical partitioning), yielding one fragment per child plus
// an anchor fragment that owns the root and every unclaimed or repeatable
// child.
func ProposeVertical(c *xmltree.Collection, queries []WorkloadQuery, opts VerticalOptions) (*VerticalAdvice, error) {
	opts = opts.withDefaults()
	if c.Len() == 0 {
		return nil, fmt.Errorf("design: empty collection %q", c.Name)
	}
	root := c.Docs[0].Root.Name

	// Candidate children: top-level element labels. A label that repeats
	// under any root cannot be a fragment path (Definition 3); it stays
	// with the anchor.
	repeatable := map[string]bool{}
	var children []string
	seen := map[string]bool{}
	for _, d := range c.Docs {
		if d.Root.Name != root {
			return nil, fmt.Errorf("design: collection %q is not homogeneous (%q vs %q)", c.Name, root, d.Root.Name)
		}
		counts := map[string]int{}
		for _, ch := range d.Root.ElementChildren() {
			counts[ch.Name]++
		}
		for name, n := range counts {
			if !seen[name] {
				seen[name] = true
				children = append(children, name)
			}
			if n > 1 {
				repeatable[name] = true
			}
		}
	}
	sort.Strings(children)

	var splittable []string
	for _, ch := range children {
		if !repeatable[ch] {
			splittable = append(splittable, ch)
		}
	}
	if len(splittable) == 0 {
		return nil, fmt.Errorf("design: no single-occurrence top-level children to split in %q", c.Name)
	}

	// Affinity: how often two children are used by the same query.
	usage := map[string]int{}
	affinity := map[[2]string]int{}
	for _, wq := range queries {
		used := usedChildren(wq.Text, c.Name, root, splittable)
		for _, a := range used {
			usage[a] += wq.weight()
			for _, b := range used {
				if a < b {
					affinity[[2]string{a, b}] += wq.weight()
				}
			}
		}
	}

	// Agglomerative clustering down to MaxFragments clusters.
	clusters := make([][]string, 0, len(splittable))
	for _, ch := range splittable {
		clusters = append(clusters, []string{ch})
	}
	for len(clusters) > opts.MaxFragments {
		bi, bj, best := 0, 1, -1
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				a := clusterAffinity(clusters[i], clusters[j], affinity)
				if a > best {
					bi, bj, best = i, j, a
				}
			}
		}
		merged := append(append([]string{}, clusters[bi]...), clusters[bj]...)
		sort.Strings(merged)
		next := [][]string{merged}
		for k, cl := range clusters {
			if k != bi && k != bj {
				next = append(next, cl)
			}
		}
		clusters = next
	}
	// Deterministic order: heaviest-used cluster first; it becomes the
	// anchor (keeping the hottest subtrees with the root avoids a join
	// for queries touching the root and those subtrees).
	sort.Slice(clusters, func(i, j int) bool {
		ui, uj := clusterUsage(clusters[i], usage), clusterUsage(clusters[j], usage)
		if ui != uj {
			return ui > uj
		}
		return clusters[i][0] < clusters[j][0]
	})

	advice := &VerticalAdvice{Groups: map[string]int{}}
	scheme := &fragmentation.Scheme{Collection: c.Name}
	anchor := clusters[0]
	anchorSet := map[string]bool{}
	for _, ch := range anchor {
		anchorSet[ch] = true
	}
	var prune []string
	for _, ch := range splittable {
		if !anchorSet[ch] {
			prune = append(prune, "/"+root+"/"+ch)
		}
	}
	f, err := fragmentation.NewVertical("F1anchor", "/"+root, prune...)
	if err != nil {
		return nil, err
	}
	scheme.Fragments = append(scheme.Fragments, f)
	advice.Groups["F1anchor"] = 0

	idx := 2
	for ci, cluster := range clusters[1:] {
		for _, ch := range cluster {
			name := fmt.Sprintf("F%d%s", idx, ch)
			f, err := fragmentation.NewVertical(name, "/"+root+"/"+ch)
			if err != nil {
				return nil, err
			}
			scheme.Fragments = append(scheme.Fragments, f)
			advice.Groups[name] = ci + 1
			idx++
		}
	}
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	advice.Scheme = scheme
	return advice, nil
}

func clusterAffinity(a, b []string, affinity map[[2]string]int) int {
	total := 0
	for _, x := range a {
		for _, y := range b {
			k := [2]string{x, y}
			if y < x {
				k = [2]string{y, x}
			}
			total += affinity[k]
		}
	}
	return total
}

func clusterUsage(cluster []string, usage map[string]int) int {
	total := 0
	for _, ch := range cluster {
		total += usage[ch]
	}
	return total
}

// usedChildren reports which top-level children a query reads, from its
// read set. A // or * step, a whole document or root element read, or an
// unresolved path uses all of them.
func usedChildren(query, collection, root string, children []string) []string {
	e, err := xquery.Parse(query)
	if err != nil {
		return nil
	}
	reads := xquery.ExtractReads(e)
	if reads.Unresolved {
		return children
	}
	used := map[string]bool{}
	for _, r := range reads.Paths {
		if r.Scan.Name != collection {
			continue
		}
		var labels []string
		attr := false
		for _, st := range r.Steps {
			if st.Descendant || st.Name == "*" {
				return children
			}
			if attr = st.Attr; attr {
				break
			}
			labels = append(labels, st.Name)
		}
		switch {
		case len(labels) > 0 && labels[0] != root:
		case len(labels) >= 2:
			used[labels[1]] = true
		case !r.Existence && !attr:
			return children // the whole document or root element is read
		}
	}
	out := make([]string, 0, len(used))
	for _, ch := range children {
		if used[ch] {
			out = append(out, ch)
		}
	}
	return out
}
