// Package xmltree implements the XML data model of the PartiX paper
// (Section 3.1): an XML data tree Δ = ⟨t, ℓ, Ψ⟩ where t is a finite ordered
// tree, ℓ labels nodes with element or attribute names, and Ψ maps leaf
// nodes to data values.
//
// The model intentionally mirrors the paper's simplifications:
//
//   - no mixed content: a text node never has element siblings;
//   - attribute nodes have exactly one child, a text node holding the value;
//   - every node carries a stable ID assigned when the document is built,
//     which survives projection (vertical fragmentation) and is the join key
//     used by the reconstruction operator of Section 3.3.
package xmltree

import (
	"fmt"
	"math"
	"strings"
)

// Kind identifies the kind of a tree node.
type Kind uint8

const (
	// ElementNode is a node labeled with a name from the element alphabet L.
	ElementNode Kind = iota
	// AttributeNode is a node labeled with a name from the attribute
	// alphabet A. It has exactly one TextNode child holding its value.
	AttributeNode
	// TextNode is a leaf holding a data value from the value domain D.
	TextNode
)

// String returns the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NodeID is a document-scoped stable node identifier. IDs are assigned in
// document order when a tree is built or parsed and are preserved by deep
// copies and projections, which makes them usable as join keys when
// reconstructing a collection from its vertical fragments.
type NodeID uint32

// Node is a single node of an XML data tree.
type Node struct {
	Kind Kind
	// partial marks a shell: a node decoded from a stored record with
	// only some of its children built (SetRecordRange). It sits in the
	// padding between Kind and ID, so a Node stays 80 bytes.
	partial  bool
	ID       NodeID
	Name     string // element or attribute name; empty for text nodes
	Value    string // data value; set for text nodes only
	Parent   *Node
	Children []*Node
	// recStart and recEnd are the byte range of the node's subtree in the
	// stored record it was decoded from; recEnd is 0 when there is none.
	// Clone copies partial but not the range: a copy has no stored
	// origin.
	recStart, recEnd uint32
}

// SetRecordRange records that n's subtree lies in bytes [start,end) of a
// stored record, 0 ≤ start < end. The decoder sets it on every node it
// builds whole, and on every shell: a node built with only the children
// a query reads (partial), whose subtree exists in full only as those
// bytes. A range that does not fit 32 bits is not recorded; a shell is
// marked partial all the same.
func (n *Node) SetRecordRange(start, end int, partial bool) {
	n.partial = partial
	if end <= math.MaxUint32 {
		n.recStart, n.recEnd = uint32(start), uint32(end)
	}
}

// RecordRange returns the byte range SetRecordRange recorded: ok is false
// when n has none. The range means something only together with the
// record it indexes, which the node does not know: whoever decoded the
// tree does. Code that edits a decoded tree in place must not then ship
// its nodes by their ranges. For a shell (Partial) the bytes, not the
// tree, are the node.
func (n *Node) RecordRange() (start, end int, ok bool) {
	return int(n.recStart), int(n.recEnd), n.recEnd != 0
}

// Partial reports whether n is a shell: its tree lacks children its
// stored bytes hold, so those bytes, not the tree, are the node. A shell
// must be shipped from its record (RecordRange) and never encoded or
// serialized from its tree; a copy of it (Clone) is partial too.
func (n *Node) Partial() bool { return n.partial }

// NewElement returns a new element node with the given children attached.
func NewElement(name string, children ...*Node) *Node {
	n := &Node{Kind: ElementNode, Name: name}
	for _, c := range children {
		n.Append(c)
	}
	return n
}

// NewText returns a new text node holding value.
func NewText(value string) *Node {
	return &Node{Kind: TextNode, Value: value}
}

// NewAttr returns a new attribute node named name whose single child is a
// text node holding value, per the paper's convention that nodes labeled in
// A have a single child with a label in D.
func NewAttr(name, value string) *Node {
	n := &Node{Kind: AttributeNode, Name: name}
	n.Append(NewText(value))
	return n
}

// Append attaches child as the last child of n and sets its parent pointer.
// It panics if child is nil; appending to a text node is a structural error
// reported by Validate rather than here, so builders stay cheap.
func (n *Node) Append(child *Node) {
	if child == nil {
		panic("xmltree: Append called with nil child")
	}
	child.Parent = n
	n.Children = append(n.Children, child)
}

// RemoveChild detaches the i-th child of n and returns it. The removed
// node's Parent is cleared.
func (n *Node) RemoveChild(i int) *Node {
	c := n.Children[i]
	n.Children = append(n.Children[:i], n.Children[i+1:]...)
	c.Parent = nil
	return c
}

// Detach removes n from its parent's child list, if any.
func (n *Node) Detach() {
	p := n.Parent
	if p == nil {
		return
	}
	for i, c := range p.Children {
		if c == n {
			p.RemoveChild(i)
			return
		}
	}
}

// Attributes returns the attribute children of n, in document order.
func (n *Node) Attributes() []*Node {
	var attrs []*Node
	for _, c := range n.Children {
		if c.Kind == AttributeNode {
			attrs = append(attrs, c)
		}
	}
	return attrs
}

// ElementChildren returns the element children of n, in document order.
func (n *Node) ElementChildren() []*Node {
	var els []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			els = append(els, c)
		}
	}
	return els
}

// Child returns the first element or attribute child named name, or nil.
// An attribute is addressed by its bare name (no "@" prefix).
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Kind != TextNode && c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all element or attribute children named name, in
// document order.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind != TextNode && c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Attr returns the value of the attribute named name, and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, c := range n.Children {
		if c.Kind == AttributeNode && c.Name == name {
			return c.Text(), true
		}
	}
	return "", false
}

// Text returns the concatenation of all text values in the subtree rooted
// at n, in document order. For a text node it is the node's value; for an
// element or attribute it is the string value in the XPath sense. A text
// node, and an element or attribute whose only child is a text node,
// return that node's value without copying it.
func (n *Node) Text() string {
	if n.Kind == TextNode {
		return n.Value
	}
	if len(n.Children) == 1 && n.Children[0].Kind == TextNode {
		return n.Children[0].Value
	}
	var sb strings.Builder
	n.EachText(func(s string) bool {
		sb.WriteString(s)
		return true
	})
	return sb.String()
}

// EachText calls fn with the value of every text node that Text
// concatenates, in document order: attribute subtrees below n are
// skipped, since attribute values are not part of element content. It
// stops as soon as fn returns false, and then returns false itself.
func (n *Node) EachText(fn func(string) bool) bool {
	if n.Kind == TextNode {
		return fn(n.Value)
	}
	for _, c := range n.Children {
		if c.Kind == AttributeNode {
			continue
		}
		if !c.EachText(fn) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the subtree rooted at n. Node IDs are
// preserved: a clone of a projected fragment can still be joined back to
// the other fragments by ID (reconstruction rule, paper Section 3.3). A
// copy of a shell stays Partial, with no bytes to ship it from.
func (n *Node) Clone() *Node {
	cp := &Node{Kind: n.Kind, partial: n.partial, Name: n.Name, Value: n.Value, ID: n.ID}
	if len(n.Children) > 0 {
		cp.Children = make([]*Node, 0, len(n.Children))
		for _, c := range n.Children {
			cc := c.Clone()
			cc.Parent = cp
			cp.Children = append(cp.Children, cc)
		}
	}
	return cp
}

// Walk calls fn for every node of the subtree rooted at n in document
// order (preorder). If fn returns false the subtree below the current node
// is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// CountNodes returns the number of nodes in the subtree rooted at n,
// including n itself.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// Depth returns the number of ancestors of n (0 for a root).
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Root returns the topmost ancestor of n (n itself if it has no parent).
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// Path returns the absolute label path of n from its root, e.g.
// "/Store/Items/Item" or "/Item/@id" for attributes. Text nodes report the
// path of their parent with a trailing "/text()".
func (n *Node) Path() string {
	var parts []string
	for cur := n; cur != nil; cur = cur.Parent {
		switch cur.Kind {
		case TextNode:
			parts = append(parts, "text()")
		case AttributeNode:
			parts = append(parts, "@"+cur.Name)
		default:
			parts = append(parts, cur.Name)
		}
	}
	// parts is leaf..root; reverse into a /-joined path.
	var sb strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		sb.WriteByte('/')
		sb.WriteString(parts[i])
	}
	return sb.String()
}

// Validate checks the structural invariants of the paper's data model:
// text nodes are leaves and have no element siblings (no mixed content),
// attribute nodes have exactly one text child, element and attribute names
// are non-empty, and parent pointers are consistent.
func (n *Node) Validate() error {
	return n.validate(nil)
}

func (n *Node) validate(parent *Node) error {
	if n.Parent != parent {
		return fmt.Errorf("xmltree: node %q has inconsistent parent pointer", n.Name)
	}
	switch n.Kind {
	case TextNode:
		if len(n.Children) != 0 {
			return fmt.Errorf("xmltree: text node has %d children", len(n.Children))
		}
	case AttributeNode:
		if n.Name == "" {
			return fmt.Errorf("xmltree: attribute node with empty name")
		}
		if len(n.Children) != 1 || n.Children[0].Kind != TextNode {
			return fmt.Errorf("xmltree: attribute %q must have exactly one text child", n.Name)
		}
	case ElementNode:
		if n.Name == "" {
			return fmt.Errorf("xmltree: element node with empty name")
		}
		hasText, hasElem := false, false
		for _, c := range n.Children {
			switch c.Kind {
			case TextNode:
				hasText = true
			case ElementNode:
				hasElem = true
			}
		}
		if hasText && hasElem {
			return fmt.Errorf("xmltree: element %q has mixed content", n.Name)
		}
	default:
		return fmt.Errorf("xmltree: unknown node kind %d", n.Kind)
	}
	for _, c := range n.Children {
		if err := c.validate(n); err != nil {
			return err
		}
	}
	return nil
}
