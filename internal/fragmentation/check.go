package fragmentation

import (
	"fmt"

	"partix/internal/algebra"
	"partix/internal/xmltree"
)

// Apply materializes every fragment of the scheme over c (FragModeSD),
// returning the fragment collections in definition order.
func (s *Scheme) Apply(c *xmltree.Collection) ([]*xmltree.Collection, error) {
	return s.ApplyMode(c, FragModeSD)
}

// ApplyMode materializes every fragment with the given mode.
func (s *Scheme) ApplyMode(c *xmltree.Collection, mode MaterializeMode) ([]*xmltree.Collection, error) {
	out := make([]*xmltree.Collection, 0, len(s.Fragments))
	for _, f := range s.Fragments {
		fc, err := f.ApplyMode(c, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, fc)
	}
	return out, nil
}

// Reconstruct applies the reconstruction operator ∇ of Section 3.3 to
// materialized fragments: the union ∪ for an all-horizontal scheme, the
// ID-join ⨝ otherwise. Reconstruct takes ownership of the fragments'
// documents: the result is assembled from their nodes without copying
// them, so frags must not be used afterwards.
func (s *Scheme) Reconstruct(frags []*xmltree.Collection) (*xmltree.Collection, error) {
	if s.AllHorizontal() {
		return algebra.Union(s.Collection, frags...)
	}
	return algebra.Join(s.Collection, frags...)
}

// CheckCompleteness verifies the completeness rule over a concrete
// collection: each data item of C appears in at least one fragment. The
// data item is a document for horizontal fragmentation and a node for
// vertical/hybrid fragmentation (Section 3.3).
func (s *Scheme) CheckCompleteness(c *xmltree.Collection) error {
	if s.AllHorizontal() {
		for _, d := range c.Docs {
			if !s.coveredByAny(d) {
				return fmt.Errorf("completeness: document %q appears in no fragment", d.Name)
			}
		}
		return nil
	}
	// Node granularity: every node of every document must appear (by ID)
	// in at least one materialized fragment document. Spine replicas count
	// as appearances, matching the rule's "appear in at least one
	// fragment" wording.
	frags, err := s.Apply(c)
	if err != nil {
		return err
	}
	for _, d := range c.Docs {
		present := make(map[xmltree.NodeID]bool, d.CountNodes())
		for _, fc := range frags {
			if fd := fc.Doc(d.Name); fd != nil {
				fd.Root.Walk(func(n *xmltree.Node) bool {
					present[n.ID] = true
					return true
				})
			}
		}
		var missing *xmltree.Node
		d.Root.Walk(func(n *xmltree.Node) bool {
			if missing == nil && !present[n.ID] {
				missing = n
			}
			return missing == nil
		})
		if missing != nil {
			return fmt.Errorf("completeness: node %s (ID %d) of document %q appears in no fragment",
				missing.Path(), missing.ID, d.Name)
		}
	}
	return nil
}

func (s *Scheme) coveredByAny(d *xmltree.Document) bool {
	for _, f := range s.Fragments {
		if algebra.Holds(f.Predicate, d.Root) {
			return true
		}
	}
	return false
}

// CheckDisjointness verifies the disjointness rule: no data item belongs
// to two fragments. For vertical/hybrid schemes the owned node sets are
// compared; spine replicas are reconstruction metadata and do not count
// (the paper: "we keep an ID in each vertical fragment for reconstruction
// purposes").
func (s *Scheme) CheckDisjointness(c *xmltree.Collection) error {
	if s.AllHorizontal() {
		for _, d := range c.Docs {
			var owner string
			for _, f := range s.Fragments {
				if algebra.Holds(f.Predicate, d.Root) {
					if owner != "" {
						return fmt.Errorf("disjointness: document %q in fragments %q and %q", d.Name, owner, f.Name)
					}
					owner = f.Name
				}
			}
		}
		return nil
	}
	for _, d := range c.Docs {
		owner := make(map[xmltree.NodeID]string)
		for _, f := range s.Fragments {
			var pred = f.Predicate
			if f.Kind == Vertical {
				pred = nil
			}
			for id := range algebra.OwnedIDs(d, f.Path, f.Prune, pred) {
				if prev, dup := owner[id]; dup {
					return fmt.Errorf("disjointness: node ID %d of document %q owned by fragments %q and %q",
						id, d.Name, prev, f.Name)
				}
				owner[id] = f.Name
			}
		}
	}
	return nil
}

// CheckReconstruction verifies the reconstruction rule: ∇ applied to the
// materialized fragments yields C again.
func (s *Scheme) CheckReconstruction(c *xmltree.Collection) error {
	frags, err := s.Apply(c)
	if err != nil {
		return err
	}
	re, err := s.Reconstruct(frags)
	if err != nil {
		return fmt.Errorf("reconstruction: %w", err)
	}
	if !xmltree.EqualCollections(c, re) {
		return fmt.Errorf("reconstruction: ∇ of fragments differs from %q (%s)", c.Name, firstDiff(c, re))
	}
	return nil
}

func firstDiff(a, b *xmltree.Collection) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("%d documents vs %d", a.Len(), b.Len())
	}
	for _, d := range a.Docs {
		other := b.Doc(d.Name)
		if other == nil {
			return fmt.Sprintf("document %q missing", d.Name)
		}
		if diff := xmltree.Diff(d.Root, other.Root); diff != "" {
			return fmt.Sprintf("document %q: %s", d.Name, diff)
		}
	}
	return "collections differ"
}

// Check validates the scheme statically and then verifies all three
// correctness rules of Section 3.3 against the concrete collection.
func (s *Scheme) Check(c *xmltree.Collection) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := s.CheckCompleteness(c); err != nil {
		return err
	}
	if err := s.CheckDisjointness(c); err != nil {
		return err
	}
	return s.CheckReconstruction(c)
}
