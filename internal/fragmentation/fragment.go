// Package fragmentation implements the PartiX fragmentation model
// (paper Section 3): horizontal, vertical and hybrid fragments of
// collections of XML documents, their materialization, and the three
// correctness rules — completeness, disjointness and reconstruction —
// of Section 3.3.
//
// A fragment F := ⟨C, γ⟩ is described by a Fragment value; a Scheme is the
// full decomposition Φ := {F1, …, Fn} of one collection. Apply materializes
// a fragment (γ applied to every document of C); Check verifies the three
// correctness rules against a concrete collection.
package fragmentation

import (
	"fmt"

	"partix/internal/algebra"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Kind classifies a fragment per Definition 1: γ is a selection
// (horizontal), a projection (vertical), or a composition of both (hybrid).
type Kind uint8

const (
	// Horizontal: F := ⟨C, σμ⟩, groups whole documents by a predicate.
	Horizontal Kind = iota
	// Vertical: F := ⟨C, πP,Γ⟩, cuts each document along a path with an
	// optional prune criterion.
	Vertical
	// Hybrid: F := ⟨C, πP,Γ • σμ⟩, a projection whose repeating children
	// are filtered by a predicate.
	Hybrid
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Horizontal:
		return "horizontal"
	case Vertical:
		return "vertical"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Fragment is one fragment definition F := ⟨C, γ⟩. The collection C is
// named by the enclosing Scheme; γ is given by Kind and the operator
// fields it uses. μ, P and Γ are written in the simple-predicate language
// of xquery.ParseDefinition.
type Fragment struct {
	Name string
	Kind Kind

	// Predicate is μ: the document selection (Horizontal) or the filter on
	// the projection's repeating children (Hybrid). Nil for Vertical.
	Predicate xquery.Expr

	// Path is P: the projection path (Vertical, Hybrid). Nil for Horizontal.
	Path *xquery.PathExpr

	// Prune is Γ: subtrees excluded from the projection. Every path must
	// have P as a prefix (Definition 3).
	Prune []*xquery.PathExpr

	// Labels is the label path (labelPath) of P, nil for a horizontal
	// fragment, which holds whole documents; PruneLabels is that of each
	// Γ path, in Prune order. The New* constructors compute both.
	Labels      []string
	PruneLabels [][]string
}

// labelPath is the element labels a definition path steps through up to
// any attribute step, "*" for a wildcard; the axis of each step is not
// part of it.
func labelPath(p *xquery.PathExpr) []string {
	out := make([]string, 0, len(p.Steps))
	for _, st := range p.Steps {
		if st.Attr {
			break
		}
		out = append(out, st.Name)
	}
	return out
}

// parsePath parses a definition that must be a path.
func parsePath(text string) (*xquery.PathExpr, error) {
	e, err := xquery.ParseDefinition(text)
	if err != nil {
		return nil, err
	}
	p, ok := e.(*xquery.PathExpr)
	if !ok {
		return nil, fmt.Errorf("fragmentation: %s is not a path", xquery.FormatDefinition(e))
	}
	return p, nil
}

// NewHorizontal builds a horizontal fragment from a predicate expression.
func NewHorizontal(name, predicate string) (*Fragment, error) {
	p, err := xquery.ParseDefinition(predicate)
	if err != nil {
		return nil, fmt.Errorf("fragment %s: %w", name, err)
	}
	return &Fragment{Name: name, Kind: Horizontal, Predicate: p}, nil
}

// NewVertical builds a vertical fragment from a path and prune expressions.
func NewVertical(name, path string, prune ...string) (*Fragment, error) {
	p, err := parsePath(path)
	if err != nil {
		return nil, fmt.Errorf("fragment %s: %w", name, err)
	}
	f := &Fragment{Name: name, Kind: Vertical, Path: p, Labels: labelPath(p)}
	for _, g := range prune {
		gp, err := parsePath(g)
		if err != nil {
			return nil, fmt.Errorf("fragment %s: prune: %w", name, err)
		}
		f.Prune = append(f.Prune, gp)
		f.PruneLabels = append(f.PruneLabels, labelPath(gp))
	}
	return f, nil
}

// NewHybrid builds a hybrid fragment πP,Γ • σμ.
func NewHybrid(name, path string, prune []string, predicate string) (*Fragment, error) {
	f, err := NewVertical(name, path, prune...)
	if err != nil {
		return nil, err
	}
	f.Kind = Hybrid
	pred, err := xquery.ParseDefinition(predicate)
	if err != nil {
		return nil, fmt.Errorf("fragment %s: %w", name, err)
	}
	f.Predicate = pred
	return f, nil
}

// MustHorizontal is NewHorizontal that panics on error.
func MustHorizontal(name, predicate string) *Fragment {
	f, err := NewHorizontal(name, predicate)
	if err != nil {
		panic(err)
	}
	return f
}

// MustVertical is NewVertical that panics on error.
func MustVertical(name, path string, prune ...string) *Fragment {
	f, err := NewVertical(name, path, prune...)
	if err != nil {
		panic(err)
	}
	return f
}

// MustHybrid is NewHybrid that panics on error.
func MustHybrid(name, path string, prune []string, predicate string) *Fragment {
	f, err := NewHybrid(name, path, prune, predicate)
	if err != nil {
		panic(err)
	}
	return f
}

// String renders the fragment in the paper's notation.
func (f *Fragment) String() string {
	switch f.Kind {
	case Horizontal:
		return fmt.Sprintf("%s := ⟨C, σ[%s]⟩", f.Name, xquery.FormatDefinition(f.Predicate))
	case Vertical:
		return fmt.Sprintf("%s := ⟨C, π[%s, %s]⟩", f.Name, xquery.FormatDefinition(f.Path), pruneString(f.Prune))
	default:
		return fmt.Sprintf("%s := ⟨C, π[%s, %s] • σ[%s]⟩", f.Name, xquery.FormatDefinition(f.Path), pruneString(f.Prune),
			xquery.FormatDefinition(f.Predicate))
	}
}

func pruneString(prune []*xquery.PathExpr) string {
	s := "{"
	for i, p := range prune {
		if i > 0 {
			s += ", "
		}
		s += xquery.FormatDefinition(p)
	}
	return s + "}"
}

// MaterializeMode controls how a hybrid fragment's instances are stored,
// reproducing the two implementations compared in Section 5:
type MaterializeMode uint8

const (
	// FragModeSD ("FragMode2"): each source document yields one fragment
	// document shaped exactly like the original but holding only the
	// selected children. This is the mode that beats the centralized
	// database in the paper.
	FragModeSD MaterializeMode = iota
	// FragModeMD ("FragMode1"): every selected child becomes an
	// independent document. Parsing hundreds of small documents is slower
	// than parsing one large one, which is the effect the paper measures.
	FragModeMD
)

// String returns the paper's name for the mode.
func (m MaterializeMode) String() string {
	if m == FragModeMD {
		return "FragMode1"
	}
	return "FragMode2"
}

// Apply materializes the fragment over collection c with FragModeSD.
func (f *Fragment) Apply(c *xmltree.Collection) (*xmltree.Collection, error) {
	return f.ApplyMode(c, FragModeSD)
}

// ApplyMode materializes the fragment over collection c. The returned
// collection carries the fragment's name. Node IDs are preserved from the
// source documents so the reconstruction join can re-assemble them.
func (f *Fragment) ApplyMode(c *xmltree.Collection, mode MaterializeMode) (*xmltree.Collection, error) {
	switch f.Kind {
	case Horizontal:
		return algebra.Select(f.Name, c, f.Predicate), nil
	case Vertical:
		return algebra.ProjectCollection(f.Name, c, f.Path, f.Prune), nil
	case Hybrid:
		out := xmltree.NewCollection(f.Name)
		for _, d := range c.Docs {
			pd := algebra.Project(d, f.Path, f.Prune)
			if pd == nil {
				continue
			}
			pd = algebra.FilterChildren(pd, f.Path, f.Predicate)
			if mode == FragModeSD {
				out.Add(pd)
				continue
			}
			// FragModeMD: explode every surviving repeating child into its
			// own document named after the source document and child ID.
			for _, anchor := range algebra.SelectPath(f.Path, pd) {
				for _, child := range anchor.ElementChildren() {
					cc := child.Clone()
					cc.Parent = nil
					out.Add(&xmltree.Document{
						Name: fmt.Sprintf("%s#%d", d.Name, child.ID),
						Root: cc,
					})
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("fragmentation: unknown kind %d", f.Kind)
	}
}
