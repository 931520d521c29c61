package fragmentation

import (
	"reflect"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func mustPath(text string) *xquery.PathExpr {
	p, err := parsePath(text)
	if err != nil {
		panic(err)
	}
	return p
}

func TestPathPrefix(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"/Store/Items", "/Store/Items/Item/Code", true},
		{"/Store/Items", "/Store/Items", true},
		{"/Store/Items/Item/Code", "/Store/Items", false}, // longer than the other
		{"/Store/Sections", "/Store/Items/Item/Code", false},
		{"//Items/Item", "/Items/Item", false}, // the axis must match
		{"/Items/Item", "//Items/Item", false},
		{"/Item/Picture[1]", "/Item/Picture[1]/Name", true},
		{"/Item/Picture[1]", "/Item/Picture[2]/Name", false}, // and the position
		{"/Item/Picture", "/Item/Picture[1]", false},
		{"/Item/@id", "/Item/id", false},
	}
	for _, tc := range cases {
		if got := pathPrefix(mustPath(tc.p), mustPath(tc.q)); got != tc.want {
			t.Errorf("pathPrefix(%s, %s) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestLabelsComputedAtConstruction(t *testing.T) {
	f := MustHybrid("F", "/Store/Items", []string{"/Store/Items/Item[2]", "/Store/Items//Picture/@id"}, `/Item/Section = "CD"`)
	if !reflect.DeepEqual(f.Labels, []string{"Store", "Items"}) {
		t.Fatalf("Labels = %q", f.Labels)
	}
	want := [][]string{{"Store", "Items", "Item"}, {"Store", "Items", "Picture"}}
	if !reflect.DeepEqual(f.PruneLabels, want) {
		t.Fatalf("PruneLabels = %q, want %q", f.PruneLabels, want)
	}
	if h := MustHorizontal("H", "true()"); h.Labels != nil || h.PruneLabels != nil {
		t.Fatalf("a horizontal fragment has labels %q, %q", h.Labels, h.PruneLabels)
	}
}

// fuzzCollection is the fixture FuzzParseFragment compares selections
// on: items with and without pictures, attributes and repeated children.
func fuzzCollection() *xmltree.Collection {
	return xmltree.NewCollection("items",
		mkItem("i1", "I1", "CD", "a good disc", true),
		mkItem("i2", "I2", "DVD", "a fine movie", false),
		mkItem("i3", "I10", "Book", "good reading", true),
		xmltree.MustParseString("i4", `<Item id="4"><Code>5</Code><Section>Toy</Section>`+
			`<Characteristics>red</Characteristics><Characteristics>large</Characteristics></Item>`),
		xmltree.MustParseString("s1", `<Store><Items><Item id="1"><Section>CD</Section></Item>`+
			`<Item id="2"><Section>DVD</Section></Item></Items></Store>`),
	)
}

// FuzzParseFragment: fragment definitions come from scheme files, so
// their parser must never panic, and a definition it accepts must print
// (xquery.FormatDefinition, what Fragment.String shows) text that parses
// back to a definition selecting the same documents, and — for a path —
// projecting the same subtrees. The seeds are the fragment definitions
// of the repository's schemes, tests and examples, and the rejected
// forms of the fragment language's tests.
func FuzzParseFragment(f *testing.F) {
	for _, s := range []string{
		`true()`,
		`/Item/Section = "CD"`, `/Item/Section = "DVD"`, `/Item/Section != "CD"`, `/Item/Section = "1"`,
		`/Item/Section != "1"`, `/Item/Section != "CD" and /Item/Section != "DVD"`,
		`(/Item/Section = "CD" or /Item/Section = "Software")`, `(/Item/Section = "DVD" or /Item/Section = "Hardware")`,
		`(/Item/Section = "Book" or /Item/Section = "Toy")`,
		`contains(//Description, "good")`, `not(contains(//Description, "good"))`, `contains(//Description, "disc")`,
		`contains(/Item/Code, "1")`, `not(contains(/Item/Code, "1"))`,
		`/Item/PictureList`, `empty(/Item/PictureList)`, `count(/Item/Characteristics) >= 2`,
		`/Item/@id > 5`, `/Item/@id <= -1.5`, `/Item/Code < 05`,
		`/Item`, `/Item/PictureList`, `/Item/PictureList/Picture`, `/Item/PictureList/Picture[1]`,
		`/Item//Picture[1]`, `/Item/@id`, `/Item/Nope`, `/Other`, `/a/b`, `/a/c`, `/Store`, `/Store/Items`,
		`/article/prolog`, `/article/body`, `/article/epilog`, `//*`, `/Item/*/Name`, `Item/Section`,
		// rejected forms
		"", "/", "/Item/", "/Item/@id/Code", "/Item[x]", "/Item[0]", "/Item[1", "/@a[2]",
		"/Item name", "/Item/&bad", "///", "and", `/Item =`, `contains(/Item)`, `contains(/Item "x")`,
		`empty()`, `count(/a) = x`, `/Item/Section = "unterminated`, `(/Item/Section = "CD"`,
		`/Item/Section = "CD") extra`, `not(/Item`, `true(`, `/a/b trailing`,
	} {
		f.Add(s)
	}
	items := fuzzCollection()
	f.Fuzz(func(t *testing.T, text string) {
		h, err := NewHorizontal("F", text)
		if err != nil {
			return
		}
		printed := xquery.FormatDefinition(h.Predicate)
		back, err := NewHorizontal("F", printed)
		if err != nil {
			t.Fatalf("%q prints %q, which does not parse: %v", text, printed, err)
		}
		if again := xquery.FormatDefinition(back.Predicate); again != printed {
			t.Fatalf("%q prints %q, then %q", text, printed, again)
		}
		if got, want := docNames(t, back, items), docNames(t, h, items); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q selects %q, its printed form %q selects %q", text, want, printed, got)
		}
		if _, isPath := h.Predicate.(*xquery.PathExpr); !isPath {
			return
		}
		v1, err1 := NewVertical("F", text)
		v2, err2 := NewVertical("F", printed)
		if err1 != nil || err2 != nil {
			t.Fatalf("path %q or its printed form %q does not parse as a path: %v, %v", text, printed, err1, err2)
		}
		p1, _ := v1.Apply(items)
		p2, _ := v2.Apply(items)
		if !xmltree.EqualCollections(p1, p2) {
			t.Fatalf("path %q and its printed form %q project differently", text, printed)
		}
	})
}

func docNames(t *testing.T, f *Fragment, c *xmltree.Collection) []string {
	t.Helper()
	out, err := f.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range out.Docs {
		names = append(names, d.Name)
	}
	return names
}
