package xmltree

import (
	"fmt"
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

// String renders the trie: children in name order, "*" marking a whole
// subtree, e.g. "{Code*,Description*}". It is the trie's wire form;
// ParseProjection reads it back.
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
