package xmltree

import (
	"sort"
	"strings"
)

// Projection selects the part of a document a query reads: a trie of
// element names rooted at the document's root element — the paper's
// vertical-fragment projection π, applied per query when a stored
// document is decoded rather than once per fragment at publish time.
//
// A nil Projection keeps everything. A kept element keeps all of its
// attribute and text children plus exactly the element children its trie
// names, each with that child's own trie; a node marked whole keeps its
// entire subtree. The root element is always kept. The zero Projection
// keeps just the root element with its attributes and text.
type Projection struct {
	whole bool
	kids  map[string]*Projection
}

// Add returns the trie node of the element child name, creating it. Below
// a whole node every child is already kept: Add returns p itself.
func (p *Projection) Add(name string) *Projection {
	if p.whole {
		return p
	}
	if p.kids == nil {
		p.kids = map[string]*Projection{}
	}
	c := p.kids[name]
	if c == nil {
		c = &Projection{}
		p.kids[name] = c
	}
	return c
}

// KeepWhole marks p's entire subtree kept.
func (p *Projection) KeepWhole() {
	p.whole = true
	p.kids = nil
}

// Whole reports whether p keeps its entire subtree (a nil Projection does).
func (p *Projection) Whole() bool { return p == nil || p.whole }

// Child resolves the element child name of a node projected by p: ok is
// false when the child is dropped; otherwise sub is the child's
// projection, nil when the child is kept whole.
func (p *Projection) Child(name string) (sub *Projection, ok bool) {
	if p.Whole() {
		return nil, true
	}
	c := p.kids[name]
	if c == nil {
		return nil, false
	}
	if c.whole {
		return nil, true
	}
	return c, true
}

// String renders the trie for diagnostics and tests: children in name
// order, "*" marking a whole subtree, e.g. "{Code*,Description*}".
func (p *Projection) String() string {
	if p.Whole() {
		return "*"
	}
	names := make([]string, 0, len(p.kids))
	for name := range p.kids {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(name)
		if c := p.kids[name]; c.whole {
			sb.WriteByte('*')
		} else if len(c.kids) > 0 {
			sb.WriteString(c.String())
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
