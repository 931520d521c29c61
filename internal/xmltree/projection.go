package xmltree

import (
	"fmt"
	"slices"
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
//
// A node marked shipped (Ship) is one a query returns to a consumer that
// may ship it as its stored bytes, and otherwise reads only through the
// children its trie names. It is whole to every reader, except that a
// decoder reading the trie WithShells may build it as a shell
// (Node.Partial): the element and the children its trie names, without
// its text, attributes or other children.
type Projection struct {
	name           string // the element p projects, below the root
	whole, shipped bool
	// shells marks a root handed out by WithShells.
	shells bool
	// kids are the children the trie names, in the order added: a
	// query's trie has a handful, searched faster than a map's hash.
	kids []*Projection
}

// Add returns the trie node of the element child name, creating it. Below
// a whole node every child is already kept: Add returns p itself.
func (p *Projection) Add(name string) *Projection {
	if p.whole {
		return p
	}
	c := p.kid(name)
	if c == nil {
		c = &Projection{name: name}
		p.kids = append(p.kids, c)
	}
	return c
}

// kid returns the child the trie names name, nil when it names none.
func (p *Projection) kid(name string) *Projection {
	for _, c := range p.kids {
		if c.name == name {
			return c
		}
	}
	return nil
}

// KeepWhole marks p's entire subtree kept.
func (p *Projection) KeepWhole() {
	p.whole, p.shipped = true, false
	p.kids = nil
}

// Ship marks p shipped: whole, but keeping the children its trie names
// for a decoder that reads the trie WithShells. It reports whether p was
// marked; a node already whole stays as it is.
func (p *Projection) Ship() bool {
	if p.whole {
		return false
	}
	p.whole, p.shipped = true, true
	return true
}

// Shipped reports whether p is marked shipped.
func (p *Projection) Shipped() bool { return p != nil && p.shipped }

// WithShells returns a copy of the root p, sharing its children, under
// which a decoder builds every shipped node as a shell.
func (p *Projection) WithShells() *Projection {
	cp := *p
	cp.shells = true
	return &cp
}

// Shells reports whether p is a root WithShells handed out.
func (p *Projection) Shells() bool { return p != nil && p.shells }

// Whole reports whether p keeps its entire subtree (a nil Projection does).
func (p *Projection) Whole() bool { return p == nil || p.whole }

// Child resolves the element child name of a node projected by p: ok is
// false when the child is dropped; otherwise sub is the child's
// projection, nil when the child is kept whole.
func (p *Projection) Child(name string) (sub *Projection, ok bool) {
	if p.Whole() { // inlined: a whole decode asks for every element
		return nil, true
	}
	return p.child(name, false)
}

// ShellChild is Child in a trie read WithShells: a shipped p resolves
// name through its own trie, and a shipped child comes back as itself.
func (p *Projection) ShellChild(name string) (sub *Projection, ok bool) {
	if p.Whole() && !p.Shipped() {
		return nil, true
	}
	return p.child(name, true)
}

// child resolves name below p, which is not whole or, with shells, is
// shipped.
func (p *Projection) child(name string, shells bool) (*Projection, bool) {
	c := p.kid(name)
	if c == nil {
		return nil, false
	}
	if c.whole && !(shells && c.shipped) {
		return nil, true
	}
	return c, true
}

// String renders the trie: children in name order, "*" marking a whole
// subtree, e.g. "{Code*,Description*}". It is the trie's wire form;
// ParseProjection reads it back. A root read WithShells renders each
// shipped node as "^" and its own trie, e.g. "{Item^{Section*}}"; that
// form stays local to the query that derived it, and ParseProjection
// does not read it back.
func (p *Projection) String() string {
	switch {
	case p.Shells() && p.shipped:
		return "^" + p.braces(true)
	case p.Whole():
		return "*"
	}
	return p.braces(p.shells)
}

// braces renders p's children in braces.
func (p *Projection) braces(shells bool) string {
	kids := slices.Clone(p.kids)
	slices.SortFunc(kids, func(a, b *Projection) int { return strings.Compare(a.name, b.name) })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, c := range kids {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(c.name)
		switch {
		case shells && c.shipped:
			sb.WriteByte('^')
			if len(c.kids) > 0 {
				sb.WriteString(c.braces(true))
			}
		case c.whole:
			sb.WriteByte('*')
		case len(c.kids) > 0:
			sb.WriteString(c.braces(shells))
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// MaxProjectionDepth bounds how many brace groups ParseProjection accepts
// nested in one another, so text from a peer cannot drive the parser's
// recursion arbitrarily deep.
const MaxProjectionDepth = 1000

// ParseProjection reads the text String produces back into a trie ("*"
// is the nil Projection, which keeps everything). It is String's exact
// inverse: it accepts only text String can produce — names in strictly
// ascending order, no empty braces below the root — nested at most
// MaxProjectionDepth deep, so ParseProjection(s).String() == s for every
// accepted s.
func ParseProjection(s string) (*Projection, error) {
	if s == "*" {
		return nil, nil
	}
	p := projectionParser{s: s}
	root, err := p.trie(0)
	if err == nil && p.pos != len(s) {
		err = p.fail("trailing text")
	}
	if err != nil {
		return nil, err
	}
	return root, nil
}

type projectionParser struct {
	s   string
	pos int
}

func (p *projectionParser) fail(what string) error {
	return fmt.Errorf("xmltree: projection %.40q: %s at offset %d", p.s, what, p.pos)
}

// trie reads one "{name…,name…}" group inside depth enclosing groups.
func (p *projectionParser) trie(depth int) (*Projection, error) {
	if depth >= MaxProjectionDepth {
		return nil, p.fail(fmt.Sprintf("nesting deeper than %d", MaxProjectionDepth))
	}
	if !p.next('{') {
		return nil, p.fail("want '{'")
	}
	t := &Projection{}
	if p.next('}') {
		return t, nil
	}
	prev := ""
	for {
		start := p.pos
		for p.pos < len(p.s) && !strings.ContainsRune("{},*", rune(p.s[p.pos])) {
			p.pos++
		}
		name := p.s[start:p.pos]
		if name == "" || (prev != "" && name <= prev) {
			return nil, p.fail("want a name after the previous one in sort order")
		}
		prev = name
		c := t.Add(name)
		switch {
		case p.next('*'):
			c.KeepWhole()
		case p.pos < len(p.s) && p.s[p.pos] == '{':
			sub, err := p.trie(depth + 1)
			if err != nil {
				return nil, err
			}
			if len(sub.kids) == 0 {
				return nil, p.fail("empty braces")
			}
			c.kids = sub.kids
		}
		if p.next('}') {
			return t, nil
		}
		if !p.next(',') {
			return nil, p.fail("want ',' or '}'")
		}
	}
}

// next consumes b if it is the next byte.
func (p *projectionParser) next(b byte) bool {
	if p.pos < len(p.s) && p.s[p.pos] == b {
		p.pos++
		return true
	}
	return false
}
