package xmltree

import (
	"strings"
	"testing"
	"unsafe"
)

func sampleItem() *Node {
	return NewElement("Item",
		NewAttr("id", "42"),
		NewElement("Code", NewText("I-42")),
		NewElement("Name", NewText("Widget")),
		NewElement("Section", NewText("CD")),
		NewElement("Description", NewText("a good widget")),
	)
}

func TestNewElementBuildsTree(t *testing.T) {
	item := sampleItem()
	if item.Kind != ElementNode || item.Name != "Item" {
		t.Fatalf("root = %s %q, want element Item", item.Kind, item.Name)
	}
	if got := len(item.Children); got != 5 {
		t.Fatalf("children = %d, want 5", got)
	}
	for _, c := range item.Children {
		if c.Parent != item {
			t.Errorf("child %q parent not set", c.Name)
		}
	}
}

func TestAttrAccess(t *testing.T) {
	item := sampleItem()
	v, ok := item.Attr("id")
	if !ok || v != "42" {
		t.Fatalf("Attr(id) = %q, %v; want 42, true", v, ok)
	}
	if _, ok := item.Attr("missing"); ok {
		t.Fatal("Attr(missing) reported present")
	}
	attrs := item.Attributes()
	if len(attrs) != 1 || attrs[0].Name != "id" {
		t.Fatalf("Attributes() = %v", attrs)
	}
}

func TestChildLookup(t *testing.T) {
	item := sampleItem()
	if c := item.Child("Section"); c == nil || c.Text() != "CD" {
		t.Fatalf("Child(Section) = %v", c)
	}
	if c := item.Child("Nope"); c != nil {
		t.Fatalf("Child(Nope) = %v, want nil", c)
	}
	if els := item.ElementChildren(); len(els) != 4 {
		t.Fatalf("ElementChildren = %d, want 4", len(els))
	}
	if named := item.ChildrenNamed("Code"); len(named) != 1 {
		t.Fatalf("ChildrenNamed(Code) = %d, want 1", len(named))
	}
}

func TestTextConcatenatesContentOnly(t *testing.T) {
	n := NewElement("a",
		NewAttr("x", "attrval"),
		NewElement("b", NewText("one")),
		NewElement("c", NewText("two")),
	)
	if got := n.Text(); got != "onetwo" {
		t.Fatalf("Text() = %q, want onetwo (attribute values excluded)", got)
	}
}

// TestTextLeafAllocs: the string value of a text node, and of an element
// or attribute whose only child is a text node, is that text's value,
// returned without a copy. Every ItemString, Attr and order-by key over
// a leaf goes through it.
func TestTextLeafAllocs(t *testing.T) {
	text := NewText("CD")
	elem := NewElement("Section", NewText("CD"))
	attr := NewAttr("id", "CD")
	for name, n := range map[string]*Node{"text": text, "element": elem, "attribute": attr} {
		var got string
		if allocs := testing.AllocsPerRun(100, func() { got = n.Text() }); allocs != 0 {
			t.Errorf("%s: Text() allocates %.0f times, want 0", name, allocs)
		}
		if got != "CD" {
			t.Errorf("%s: Text() = %q, want CD", name, got)
		}
	}
}

func TestEachTextStopsEarly(t *testing.T) {
	n := NewElement("a",
		NewAttr("x", "attrval"),
		NewElement("b", NewText("one")),
		NewElement("c", NewText("two"), NewElement("d", NewText("three"))),
	)
	var seen []string
	complete := n.EachText(func(s string) bool {
		seen = append(seen, s)
		return s != "two"
	})
	if complete || strings.Join(seen, ",") != "one,two" {
		t.Fatalf("EachText stopping at two: complete=%v, visited %q; want false, [one two]", complete, seen)
	}
	seen = seen[:0]
	if !n.EachText(func(s string) bool { seen = append(seen, s); return true }) || len(seen) != 3 {
		t.Fatalf("EachText to the end visited %q, want one, two, three", seen)
	}
}

func TestCloneIsDeepAndPreservesIDs(t *testing.T) {
	doc := NewDocument("d1", sampleItem())
	cp := doc.Root.Clone()
	if !Equal(doc.Root, cp) {
		t.Fatal("clone not equal to original")
	}
	if cp.ID != doc.Root.ID {
		t.Fatalf("clone root ID %d != original %d", cp.ID, doc.Root.ID)
	}
	// Mutating the clone must not affect the original.
	cp.Children[1].Children[0].Value = "changed"
	if doc.Root.Children[1].Children[0].Value == "changed" {
		t.Fatal("clone shares text node with original")
	}
	if cp.Children[0].Parent != cp {
		t.Fatal("clone children parents not rewired")
	}
}

func TestDetach(t *testing.T) {
	item := sampleItem()
	sec := item.Child("Section")
	sec.Detach()
	if item.Child("Section") != nil {
		t.Fatal("Section still attached after Detach")
	}
	if sec.Parent != nil {
		t.Fatal("detached node keeps parent pointer")
	}
	if len(item.Children) != 4 {
		t.Fatalf("children = %d after detach, want 4", len(item.Children))
	}
	// Detach on a root is a no-op.
	item.Detach()
}

func TestWalkPreorderAndPrune(t *testing.T) {
	item := sampleItem()
	var names []string
	item.Walk(func(n *Node) bool {
		if n.Kind == ElementNode {
			names = append(names, n.Name)
		}
		return n.Name != "Code" // prune below Code
	})
	want := "Item Code Name Section Description"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("walk order = %q, want %q", got, want)
	}
}

func TestPathAndDepth(t *testing.T) {
	doc := NewDocument("d", sampleItem())
	sec := doc.Root.Child("Section")
	if got := sec.Path(); got != "/Item/Section" {
		t.Fatalf("Path = %q", got)
	}
	id := doc.Root.Child("id")
	if got := id.Path(); got != "/Item/@id" {
		t.Fatalf("attr Path = %q", got)
	}
	if sec.Depth() != 1 || doc.Root.Depth() != 0 {
		t.Fatalf("Depth wrong: %d %d", sec.Depth(), doc.Root.Depth())
	}
	txt := sec.Children[0]
	if got := txt.Path(); got != "/Item/Section/text()" {
		t.Fatalf("text Path = %q", got)
	}
	if txt.Root() != doc.Root {
		t.Fatal("Root() did not reach document root")
	}
}

func TestValidateRejectsMixedContent(t *testing.T) {
	bad := NewElement("a", NewText("t"), NewElement("b"))
	if err := bad.Validate(); err == nil {
		t.Fatal("mixed content accepted")
	}
}

func TestValidateRejectsBadAttribute(t *testing.T) {
	attr := &Node{Kind: AttributeNode, Name: "x"} // no text child
	root := NewElement("a")
	root.Append(attr)
	if err := root.Validate(); err == nil {
		t.Fatal("attribute without text child accepted")
	}
}

func TestValidateRejectsEmptyNames(t *testing.T) {
	if err := NewElement("").Validate(); err == nil {
		t.Fatal("empty element name accepted")
	}
}

func TestValidateDetectsBrokenParent(t *testing.T) {
	item := sampleItem()
	item.Children[0].Parent = nil
	if err := item.Validate(); err == nil {
		t.Fatal("broken parent pointer accepted")
	}
}

func TestCountNodes(t *testing.T) {
	// Item + attr(id) + its text + 4 elements + 4 texts = 11
	if got := sampleItem().CountNodes(); got != 11 {
		t.Fatalf("CountNodes = %d, want 11", got)
	}
}

func TestRemoveChild(t *testing.T) {
	item := sampleItem()
	removed := item.RemoveChild(1)
	if removed.Name != "Code" || removed.Parent != nil {
		t.Fatalf("RemoveChild returned %q parent=%v", removed.Name, removed.Parent)
	}
	if item.Child("Code") != nil {
		t.Fatal("Code still present")
	}
}

func TestKindString(t *testing.T) {
	if ElementNode.String() != "element" || AttributeNode.String() != "attribute" || TextNode.String() != "text" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

// A Node stays 80 bytes: the record range a decoded node carries sits in
// the padding the other fields leave, so decode slabs do not grow with it.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size != 80 {
		t.Fatalf("a Node is %d bytes, want 80", size)
	}
}
