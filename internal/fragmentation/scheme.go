package fragmentation

import (
	"fmt"

	"partix/internal/xmlschema"
	"partix/internal/xquery"
)

// Scheme is a full fragmentation design Φ := {F1, …, Fn} of one collection.
type Scheme struct {
	// Collection names the fragmented collection.
	Collection string
	// SD marks single-document repositories; horizontal fragmentation is
	// rejected for them (paper Section 3.2: horizontal fragmentation is
	// defined over documents, not nodes).
	SD bool
	// RootType is the element type every document satisfies; used with
	// Schema for static cardinality checks of vertical paths.
	RootType string
	// Schema optionally enables static validation against the collection
	// schema. Nil skips schema-dependent checks.
	Schema *xmlschema.Schema

	Fragments []*Fragment
}

// Fragment returns the fragment named name, or nil.
func (s *Scheme) Fragment(name string) *Fragment {
	for _, f := range s.Fragments {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AllHorizontal reports whether every fragment is horizontal; the
// reconstruction operator ∇ is then the union ∪, otherwise the join ⨝.
func (s *Scheme) AllHorizontal() bool {
	for _, f := range s.Fragments {
		if f.Kind != Horizontal {
			return false
		}
	}
	return true
}

// Validate performs the static checks a fragmentation design must pass
// before any data is loaded:
//
//   - at least one fragment, with unique non-empty names;
//   - fragments agree on the data-item granularity: either all horizontal
//     (documents) or none (nodes) — mixing would make the disjointness
//     rule incoherent;
//   - horizontal fragmentation is rejected for SD repositories;
//   - every prune path of a π has the fragment path as a prefix
//     (Definition 3: "path expressions in which P is a prefix");
//   - with a schema: vertical/hybrid paths must not traverse a step that
//     may occur more than once unless the step fixes a position e[i]
//     (Definition 3's well-formedness restriction), and each path must
//     resolve against the schema. The descendant axis cannot be bounded
//     statically and is rejected in fragment paths.
func (s *Scheme) Validate() error {
	if len(s.Fragments) == 0 {
		return fmt.Errorf("fragmentation: scheme for %q has no fragments", s.Collection)
	}
	names := make(map[string]bool, len(s.Fragments))
	horizontal, other := 0, 0
	for _, f := range s.Fragments {
		if f.Name == "" {
			return fmt.Errorf("fragmentation: fragment with empty name")
		}
		if names[f.Name] {
			return fmt.Errorf("fragmentation: duplicate fragment name %q", f.Name)
		}
		names[f.Name] = true
		if err := s.validateFragment(f); err != nil {
			return err
		}
		if f.Kind == Horizontal {
			horizontal++
		} else {
			other++
		}
	}
	if horizontal > 0 && other > 0 {
		return fmt.Errorf("fragmentation: scheme mixes horizontal and vertical/hybrid fragments")
	}
	if horizontal > 0 && s.SD {
		return fmt.Errorf("fragmentation: SD repository %q may not be horizontally fragmented", s.Collection)
	}
	return nil
}

func (s *Scheme) validateFragment(f *Fragment) error {
	switch f.Kind {
	case Horizontal:
		if f.Predicate == nil {
			return fmt.Errorf("fragment %s: horizontal fragment needs a predicate", f.Name)
		}
		if f.Path != nil {
			return fmt.Errorf("fragment %s: horizontal fragment must not have a path", f.Name)
		}
	case Vertical, Hybrid:
		if f.Path == nil {
			return fmt.Errorf("fragment %s: %s fragment needs a path", f.Name, f.Kind)
		}
		if f.Kind == Hybrid && f.Predicate == nil {
			return fmt.Errorf("fragment %s: hybrid fragment needs a predicate", f.Name)
		}
		if f.Kind == Vertical && f.Predicate != nil {
			return fmt.Errorf("fragment %s: vertical fragment must not have a predicate", f.Name)
		}
		for _, g := range f.Prune {
			if !pathPrefix(f.Path, g) {
				return fmt.Errorf("fragment %s: prune path %s does not extend fragment path %s",
					f.Name, xquery.FormatDefinition(g), xquery.FormatDefinition(f.Path))
			}
		}
		if s.Schema != nil {
			if err := s.checkPathCardinality(f); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("fragment %s: unknown kind %d", f.Name, f.Kind)
	}
	return nil
}

// checkPathCardinality enforces Definition 3's restriction: P may not
// retrieve nodes that can have cardinality greater than one, except when
// the element position is fixed with e[i].
func (s *Scheme) checkPathCardinality(f *Fragment) error {
	if s.RootType == "" {
		return fmt.Errorf("fragment %s: scheme has a schema but no root type", f.Name)
	}
	t := s.Schema.Type(s.RootType)
	if t == nil {
		return fmt.Errorf("fragment %s: unknown root type %q", f.Name, s.RootType)
	}
	steps, path := f.Path.Steps, xquery.FormatDefinition(f.Path)
	if len(steps) == 0 {
		return fmt.Errorf("fragment %s: empty fragment path", f.Name)
	}
	if steps[0].Descendant || steps[0].Name == "*" {
		return fmt.Errorf("fragment %s: fragment path %s cannot start with // or *", f.Name, path)
	}
	if steps[0].Name != t.ElementName() {
		return fmt.Errorf("fragment %s: path %s does not start at collection root %q", f.Name, path, t.ElementName())
	}
	for _, st := range steps[1:] {
		if st.Descendant {
			return fmt.Errorf("fragment %s: descendant axis in fragment path %s cannot be bounded statically", f.Name, path)
		}
		if st.Name == "*" {
			return fmt.Errorf("fragment %s: wildcard step in fragment path %s", f.Name, path)
		}
		if st.Attr {
			return fmt.Errorf("fragment %s: fragment path %s must select elements, not attributes", f.Name, path)
		}
		p := t.Child(st.Name)
		if p == nil {
			return fmt.Errorf("fragment %s: schema type %q has no child %q (path %s)", f.Name, t.Name, st.Name, path)
		}
		if p.Occurs.MayRepeat() && xquery.Position(st) == 0 {
			return fmt.Errorf("fragment %s: step %q in %s may occur %s times; fix a position with [i] (Definition 3)",
				f.Name, st.Name, path, p.Occurs)
		}
		t = p.Type
	}
	return nil
}

// pathPrefix reports whether every step of p equals the corresponding
// leading step of q: same axis, node test and position.
func pathPrefix(p, q *xquery.PathExpr) bool {
	if len(p.Steps) > len(q.Steps) {
		return false
	}
	for i, s := range p.Steps {
		o := q.Steps[i]
		if s.Descendant != o.Descendant || s.Name != o.Name || s.Attr != o.Attr || xquery.Position(s) != xquery.Position(o) {
			return false
		}
	}
	return true
}
