// Package algebra implements the tree-algebra operators the PartiX paper
// builds its fragmentation model on (Section 3.2, following TAX/TLC):
// selection σ over documents, projection π with a prune criterion Γ, the
// union operator ∪ that reconstructs horizontal fragmentations, and the
// ID-join ⨝ that reconstructs vertical ones.
//
// # Projection and the spine
//
// π(P, Γ) over a document keeps the subtrees rooted at the nodes selected
// by P, minus the subtrees rooted at nodes selected by the paths in Γ. To
// keep every projected document well-formed ("they must have a single
// root", paper Section 3.2) the result also carries the spine: the chain
// of ancestor elements from the document root down to each selected node,
// including the ancestors' attributes. Spine nodes are replicated across
// fragments; they are reconstruction metadata ("we keep an ID in each
// vertical fragment for reconstruction purposes") and are excluded from
// the ownership sets the disjointness rule is checked against.
//
// Carrying spine attributes is what lets a query like
// /article[@id="x"]/prolog run against the prolog fragment alone.
package algebra

import (
	"fmt"
	"sort"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Holds reports whether the definition predicate pred
// (xquery.ParseDefinition) is true of the tree rooted at root, with a
// document node over root as the context node: the document for a
// selection σ, a repeating child for the σ of a hybrid fragment. A
// definition evaluates without error; an expression outside that
// language that fails to evaluate panics.
func Holds(pred xquery.Expr, root *xmltree.Node) bool {
	v, err := xquery.EvalWith(pred, nil, nil, xquery.DocNode(&xmltree.Document{Root: root}))
	if err == nil {
		var ok bool
		if ok, err = xquery.EffectiveBool(v); err == nil {
			return ok
		}
	}
	panic(fmt.Sprintf("algebra: predicate %s: %v", xquery.FormatDefinition(pred), err))
}

// SelectPath returns the nodes the definition path p selects in doc, in
// document order, with the document node as the context node.
func SelectPath(p *xquery.PathExpr, doc *xmltree.Document) []*xmltree.Node {
	if doc == nil || doc.Root == nil {
		return nil
	}
	v, err := xquery.EvalWith(p, nil, nil, xquery.DocNode(doc))
	if err != nil {
		panic(fmt.Sprintf("algebra: path %s: %v", xquery.FormatDefinition(p), err))
	}
	out := make([]*xmltree.Node, len(v))
	for i, it := range v {
		out[i] = it.(*xmltree.Node)
	}
	return out
}

// Select returns the documents of c satisfying pred, as deep copies: a
// fragment is an independent collection (paper Definition 2). The result
// collection is named name.
func Select(name string, c *xmltree.Collection, pred xquery.Expr) *xmltree.Collection {
	out := xmltree.NewCollection(name)
	for _, d := range c.Docs {
		if Holds(pred, d.Root) {
			out.Add(d.Clone())
		}
	}
	return out
}

// Project applies π(P, Γ) to a single document and returns the projected
// document, or nil when P selects nothing (the document contributes no
// instance to this fragment). The result keeps the original document name
// and original node IDs.
func Project(doc *xmltree.Document, p *xquery.PathExpr, prune []*xquery.PathExpr) *xmltree.Document {
	selected := SelectPath(p, doc)
	if len(selected) == 0 {
		return nil
	}
	pruned := pruneSet(doc, prune)

	// Copy each selected subtree, skipping pruned descendants.
	copies := make(map[*xmltree.Node]*xmltree.Node, len(selected))
	for _, sel := range selected {
		if c := copyWithout(sel, pruned); c != nil {
			copies[sel] = c
		}
	}
	if len(copies) == 0 {
		return nil
	}

	// Build the spine from the root to each selected node.
	root := buildSpine(doc.Root, selected, copies)
	if root == nil {
		return nil
	}
	return &xmltree.Document{Name: doc.Name, Root: root}
}

// pruneSet returns the set of nodes removed by the prune criterion: every
// node in a subtree rooted at a node selected by some path in prune.
func pruneSet(doc *xmltree.Document, prune []*xquery.PathExpr) map[*xmltree.Node]bool {
	if len(prune) == 0 {
		return nil
	}
	set := make(map[*xmltree.Node]bool)
	for _, g := range prune {
		for _, n := range SelectPath(g, doc) {
			n.Walk(func(d *xmltree.Node) bool { set[d] = true; return true })
		}
	}
	return set
}

// copyWithout deep-copies the subtree at n, skipping nodes in skip.
// Returns nil if n itself is skipped.
func copyWithout(n *xmltree.Node, skip map[*xmltree.Node]bool) *xmltree.Node {
	if skip[n] {
		return nil
	}
	cp := &xmltree.Node{Kind: n.Kind, Name: n.Name, Value: n.Value, ID: n.ID}
	for _, c := range n.Children {
		if cc := copyWithout(c, skip); cc != nil {
			cc.Parent = cp
			cp.Children = append(cp.Children, cc)
		}
	}
	return cp
}

// buildSpine copies the chain of ancestors needed to reach each selected
// node, grafting the prepared subtree copies at the selected positions.
// Ancestor elements keep their attributes (replicated metadata) but none
// of their other content. If the root itself is selected its copy is
// returned directly.
func buildSpine(root *xmltree.Node, selected []*xmltree.Node, copies map[*xmltree.Node]*xmltree.Node) *xmltree.Node {
	if c, ok := copies[root]; ok {
		return c
	}
	// needed[n] is true when n is a proper ancestor of a selected node.
	needed := make(map[*xmltree.Node]bool)
	for _, sel := range selected {
		if _, ok := copies[sel]; !ok {
			continue
		}
		for p := sel.Parent; p != nil; p = p.Parent {
			needed[p] = true
		}
	}
	if !needed[root] {
		return nil
	}
	return buildSpineNode(root, needed, copies)
}

func buildSpineNode(n *xmltree.Node, needed map[*xmltree.Node]bool, copies map[*xmltree.Node]*xmltree.Node) *xmltree.Node {
	cp := &xmltree.Node{Kind: n.Kind, Name: n.Name, ID: n.ID}
	for _, c := range n.Children {
		var cc *xmltree.Node
		switch {
		case copies[c] != nil:
			cc = copies[c]
		case needed[c]:
			cc = buildSpineNode(c, needed, copies)
		case c.Kind == xmltree.AttributeNode:
			cc = c.Clone()
		default:
			continue
		}
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// ProjectCollection applies π(P, Γ) to every document of c.
func ProjectCollection(name string, c *xmltree.Collection, p *xquery.PathExpr, prune []*xquery.PathExpr) *xmltree.Collection {
	out := xmltree.NewCollection(name)
	for _, d := range c.Docs {
		if pd := Project(d, p, prune); pd != nil {
			out.Add(pd)
		}
	}
	return out
}

// FilterChildren implements the σ step of a hybrid fragment π(P,Γ) • σ(μ):
// within doc, the element children of every node selected by anchor are
// kept only if they satisfy pred (evaluated with the child as root, so a
// predicate written /Item/Section = "CD" filters Item children). The
// document is modified in place and returned; it is nil-safe.
func FilterChildren(doc *xmltree.Document, anchor *xquery.PathExpr, pred xquery.Expr) *xmltree.Document {
	if doc == nil {
		return nil
	}
	for _, parent := range SelectPath(anchor, doc) {
		kept := parent.Children[:0]
		for _, c := range parent.Children {
			if c.Kind != xmltree.ElementNode || Holds(pred, c) {
				kept = append(kept, c)
			} else {
				c.Parent = nil
			}
		}
		parent.Children = kept
	}
	return doc
}

// Union implements the reconstruction operator ∪ for horizontal
// fragmentation: the disjoint union of the fragments' documents. A
// document name appearing in more than one fragment is an error — that is
// exactly a disjointness violation. The result holds the fragments'
// documents themselves, not copies.
func Union(name string, frags ...*xmltree.Collection) (*xmltree.Collection, error) {
	out := xmltree.NewCollection(name)
	seen := make(map[string]string)
	for _, f := range frags {
		for _, d := range f.Docs {
			if prev, dup := seen[d.Name]; dup {
				return nil, fmt.Errorf("algebra: document %q in fragments %q and %q", d.Name, prev, f.Name)
			}
			seen[d.Name] = f.Name
			out.Add(d)
		}
	}
	out.SortByName()
	return out, nil
}

// MergeByID implements the reconstruction join ⨝ for vertical and hybrid
// fragmentation: it overlays documents that share a name, matching nodes
// by their preserved IDs. Children are interleaved in ascending ID order,
// which is original document order because IDs are assigned in preorder.
// Nodes with equal IDs must agree on kind, name and value (they are spine
// replicas) and are merged recursively.
//
// MergeByID takes ownership of docs: the merged tree is built in place
// from their nodes, with every Parent pointer set, and the inputs must not
// be used afterwards — not even after an error, which may leave them half
// merged.
func MergeByID(docs []*xmltree.Document) (*xmltree.Document, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("algebra: MergeByID of zero documents")
	}
	merged, name := docs[0].Root, docs[0].Name
	for _, d := range docs[1:] {
		if d.Name != name {
			return nil, fmt.Errorf("algebra: MergeByID across documents %q and %q", name, d.Name)
		}
		if err := mergeInto(merged, d.Root); err != nil {
			return nil, fmt.Errorf("document %q: %w", name, err)
		}
	}
	return &xmltree.Document{Name: name, Root: merged}, nil
}

// mergeInto merges b's subtree into a, which keeps its place in its tree:
// their children are interleaved by ID into a fresh slice (a decoded
// node's child slice may be a window of a shared one, never written
// through), equal IDs merge recursively, and b itself is dropped.
func mergeInto(a, b *xmltree.Node) error {
	if a.ID != b.ID || a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
		return fmt.Errorf("algebra: cannot merge node %q (ID %d) with %q (ID %d)", a.Name, a.ID, b.Name, b.ID)
	}
	if len(b.Children) == 0 {
		return nil
	}
	kids := make([]*xmltree.Node, 0, len(a.Children)+len(b.Children))
	i, j := 0, 0
	for i < len(a.Children) || j < len(b.Children) {
		var pick *xmltree.Node
		switch {
		case i >= len(a.Children):
			pick = b.Children[j]
			j++
		case j >= len(b.Children):
			pick = a.Children[i]
			i++
		case a.Children[i].ID == b.Children[j].ID:
			if err := mergeInto(a.Children[i], b.Children[j]); err != nil {
				return err
			}
			pick = a.Children[i]
			i++
			j++
		case a.Children[i].ID < b.Children[j].ID:
			pick = a.Children[i]
			i++
		default:
			pick = b.Children[j]
			j++
		}
		pick.Parent = a
		kids = append(kids, pick)
	}
	a.Children = kids
	return nil
}

// Join groups the fragments' documents by name and merges each group with
// MergeByID, yielding the reconstructed collection. Like MergeByID it
// takes ownership of the fragments' documents.
func Join(name string, frags ...*xmltree.Collection) (*xmltree.Collection, error) {
	groups := make(map[string][]*xmltree.Document)
	var order []string
	for _, f := range frags {
		for _, d := range f.Docs {
			if _, ok := groups[d.Name]; !ok {
				order = append(order, d.Name)
			}
			groups[d.Name] = append(groups[d.Name], d)
		}
	}
	sort.Strings(order)
	out := xmltree.NewCollection(name)
	for _, docName := range order {
		m, err := MergeByID(groups[docName])
		if err != nil {
			return nil, err
		}
		out.Add(m)
	}
	return out, nil
}

// OwnedIDs returns the set of node IDs a projection-selection owns in doc:
// the node-level "data items" the correctness rules of Section 3.3 are
// stated over. For a plain vertical fragment (pred == nil) the owned set is
// the subtrees selected by p minus pruned subtrees. For a hybrid fragment
// (pred != nil) the projection root is itself replicated metadata — the
// horizontal sub-fragments of a hybrid design all carry it — so only the
// subtrees of its element children that satisfy pred are owned. Spine
// ancestors are never owned.
func OwnedIDs(doc *xmltree.Document, p *xquery.PathExpr, prune []*xquery.PathExpr, pred xquery.Expr) map[xmltree.NodeID]bool {
	owned := make(map[xmltree.NodeID]bool)
	pruned := pruneSet(doc, prune)
	own := func(root *xmltree.Node) {
		root.Walk(func(n *xmltree.Node) bool {
			if pruned[n] {
				return false
			}
			owned[n.ID] = true
			return true
		})
	}
	for _, sel := range SelectPath(p, doc) {
		if pruned[sel] {
			continue
		}
		if pred == nil {
			own(sel)
			continue
		}
		for _, c := range sel.Children {
			if c.Kind == xmltree.ElementNode && Holds(pred, c) {
				own(c)
			}
		}
	}
	return owned
}
