package xmltree

import (
	"io"
	"math/rand"
	"strings"
	"testing"
)

const storeXML = `<?xml version="1.0"?>
<Store>
  <Sections>
    <Section><Code>S1</Code><Name>CD</Name></Section>
    <Section><Code>S2</Code><Name>DVD</Name></Section>
  </Sections>
  <Items>
    <Item id="1"><Code>I1</Code><Section>CD</Section></Item>
    <Item id="2"><Code>I2</Code><Section>DVD</Section></Item>
  </Items>
</Store>`

func TestParseStore(t *testing.T) {
	doc, err := ParseString("store", storeXML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Name != "Store" {
		t.Fatalf("root = %q", doc.Root.Name)
	}
	items := doc.Root.Child("Items")
	if items == nil {
		t.Fatal("no Items")
	}
	list := items.ChildrenNamed("Item")
	if len(list) != 2 {
		t.Fatalf("items = %d, want 2", len(list))
	}
	if v, _ := list[0].Attr("id"); v != "1" {
		t.Fatalf("first item id = %q", v)
	}
	if got := list[1].Child("Section").Text(); got != "DVD" {
		t.Fatalf("second item section = %q", got)
	}
}

func TestParseDropsWhitespaceOnlyText(t *testing.T) {
	doc := MustParseString("d", "<a>\n  <b>x</b>\n</a>")
	if len(doc.Root.Children) != 1 {
		t.Fatalf("children = %d, want 1 (whitespace dropped)", len(doc.Root.Children))
	}
}

func TestParseCoalescesText(t *testing.T) {
	doc := MustParseString("d", "<a>one&amp;two</a>")
	if len(doc.Root.Children) != 1 || doc.Root.Children[0].Value != "one&two" {
		t.Fatalf("text = %#v", doc.Root.Children)
	}
}

func TestParseAssignsDocumentOrderIDs(t *testing.T) {
	doc := MustParseString("d", "<a><b>x</b><c>y</c></a>")
	var ids []NodeID
	doc.Root.Walk(func(n *Node) bool { ids = append(ids, n.ID); return true })
	for i, id := range ids {
		if id != NodeID(i+1) {
			t.Fatalf("ids = %v, want 1..n in document order", ids)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"text only":   "hello",
		"unclosed":    "<a><b></a>",
		"mixed roots": "<a/><b/>",
	}
	for name, in := range cases {
		if _, err := ParseString("d", in); err == nil {
			t.Errorf("%s: no error for %q", name, in)
		}
	}
}

func TestParseRejectsMixedContent(t *testing.T) {
	if _, err := ParseString("d", "<a>text<b/></a>"); err == nil {
		t.Fatal("mixed content accepted by Parse")
	}
}

func TestParseSkipsCommentsAndPIs(t *testing.T) {
	doc := MustParseString("d", `<?pi x?><a><!-- c --><b>v</b></a>`)
	if len(doc.Root.Children) != 1 || doc.Root.Children[0].Name != "b" {
		t.Fatalf("children = %v", doc.Root.Children)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	doc := MustParseString("store", storeXML)
	out := SerializeString(doc)
	again, err := ParseString("store", out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !Equal(doc.Root, again.Root) {
		t.Fatalf("round trip mismatch: %s", Diff(doc.Root, again.Root))
	}
}

func TestSerializeEscaping(t *testing.T) {
	doc := NewDocument("d", NewElement("a",
		NewAttr("q", `he said "hi" & <bye>`),
		NewElement("t", NewText(`1 < 2 & 3 > 2`)),
	))
	out := SerializeString(doc)
	if strings.Contains(strings.ReplaceAll(out, "&lt;", ""), "<bye>") {
		t.Fatalf("attribute not escaped: %s", out)
	}
	rt := MustParseString("d", out)
	if !Equal(doc.Root, rt.Root) {
		t.Fatalf("escaping round trip: %s", Diff(doc.Root, rt.Root))
	}
}

func TestSerializeEmptyElement(t *testing.T) {
	doc := NewDocument("d", NewElement("a", NewAttr("x", "1")))
	if got := SerializeString(doc); got != `<a x="1"/>` {
		t.Fatalf("got %q", got)
	}
}

// TestSerializedSizeMatchesString: the computed sizes equal the length of
// the text, byte for byte, over random trees whose text and attribute
// values need escaping, at every node — and computing them allocates
// nothing.
func TestSerializedSizeMatchesString(t *testing.T) {
	// Values of every length up to past longValue, holding every byte an
	// entity replaces, so both ways of counting escapes are checked.
	long := NewElement("long")
	for n := 1; n < 3*longValue; n += 7 {
		v := strings.Repeat("a<b>c&d\"e\r", n)[:n]
		long.Append(NewElement("v", NewAttr("a", v), NewText(v)))
	}
	docs := []*Document{MustParseString("store", storeXML), NewDocument("long", long)}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		docs = append(docs, NewDocument("q", randomTree(r, 5)))
	}
	for _, doc := range docs {
		if got, want := SerializedSize(doc), len(SerializeString(doc)); got != want {
			t.Fatalf("SerializedSize = %d, len = %d: %s", got, want, SerializeString(doc))
		}
		doc.Root.Walk(func(n *Node) bool {
			if got, want := NodeSerializedSize(n), len(NodeString(n)); got != want {
				t.Fatalf("NodeSerializedSize(%s) = %d, len = %d: %s", n.Path(), got, want, NodeString(n))
			}
			return true
		})
		if allocs := testing.AllocsPerRun(10, func() { SerializedSize(doc) }); allocs != 0 {
			t.Fatalf("SerializedSize allocates %.0f times", allocs)
		}
	}
}

// sectionedArticle builds an article whose body holds n sections, each
// with an attribute, a title and two paragraphs needing escapes.
func sectionedArticle(n int) *Document {
	body := NewElement("body")
	for i := 0; i < n; i++ {
		body.Append(NewElement("section", NewAttr("id", `s"1"`),
			NewElement("title", NewText("a <title>")),
			NewElement("p", NewText("one & two")),
			NewElement("p", NewText("three"))))
	}
	return NewDocument("a", NewElement("article", NewAttr("id", "a1"),
		NewElement("prolog", NewElement("title", NewText("t"))), body))
}

// TestSerializeAllocs: serializing allocates a constant number of times
// (the bufio.Writer), not once per element or attribute. A serializer
// that gathered each element's content into a slice and built each
// attribute value as a string cost 82 and 715 allocations here.
func TestSerializeAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{10, 100} {
		doc := sectionedArticle(n)
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if err := Serialize(doc, io.Discard); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("allocations at 10 and 100 sections: %v", counts)
	if counts[0] != counts[1] || counts[1] > 2 {
		t.Fatalf("Serialize allocations at 10 and 100 sections = %v, want the same constant ≤ 2", counts)
	}
}

func TestSerializeWriter(t *testing.T) {
	doc := MustParseString("store", storeXML)
	var sb strings.Builder
	if err := Serialize(doc, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != SerializeString(doc) {
		t.Fatal("Serialize and SerializeString disagree")
	}
}
