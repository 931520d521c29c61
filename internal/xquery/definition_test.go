package xquery

import (
	"reflect"
	"testing"

	"partix/internal/xmltree"
)

const definitionItemXML = `<Item id="7">
  <Code>I7</Code>
  <Name>Box</Name>
  <Description>a good box</Description>
  <Section>CD</Section>
  <Characteristics>red</Characteristics>
  <Characteristics>large</Characteristics>
  <PictureList>
    <Picture><Name>front</Name><ModificationDate>d1</ModificationDate><OriginalPath>/f</OriginalPath><ThumbPath>/tf</ThumbPath></Picture>
    <Picture><Name>back</Name><ModificationDate>d2</ModificationDate><OriginalPath>/b</OriginalPath><ThumbPath>/tb</ThumbPath></Picture>
  </PictureList>
</Item>`

// evalDefinition evaluates a parsed definition with a document node over
// root as the context node, as fragment selection does.
func evalDefinition(t *testing.T, e Expr, root *xmltree.Node) Seq {
	t.Helper()
	v, err := EvalWith(e, nil, nil, DocNode(&xmltree.Document{Root: root}))
	if err != nil {
		t.Fatalf("%s: %v", FormatDefinition(e), err)
	}
	return v
}

func TestParseDefinitionPaths(t *testing.T) {
	doc := xmltree.MustParseString("i7", definitionItemXML)
	cases := []struct {
		expr   string
		steps  int
		values []string // string values of the selected nodes, in document order
	}{
		{"/Item/Section", 2, []string{"CD"}},
		{"/Other/Section", 2, nil}, // the first step matches the root label
		{"/Item/Characteristics", 2, []string{"red", "large"}},
		{"/Item/@id", 2, []string{"7"}},
		{"//Name", 1, []string{"Box", "front", "back"}},
		{"/Item//Picture/Name", 3, []string{"front", "back"}},
		{"/Item/PictureList/*/Name", 4, []string{"front", "back"}},
		{"/Item/PictureList/Picture[2]/Name", 4, []string{"back"}},
		{"/Item/Characteristics[1]", 2, []string{"red"}},
		{"/Item/Characteristics[3]", 2, nil},
		{"/Item//Picture[1]/Name", 3, []string{"front"}},
		{"//PictureList//Name", 2, []string{"front", "back"}}, // no duplicates
		{"Item/Section", 2, []string{"CD"}},                   // a relative path starts at the context node too
		{"Section", 1, nil},
		{"/Store/Items/Item", 3, nil},
	}
	for _, tc := range cases {
		e, err := ParseDefinition(tc.expr)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		p, ok := e.(*PathExpr)
		if !ok || p.Source != nil || len(p.Steps) != tc.steps {
			t.Errorf("%s: parsed to %#v, want a rooted path of %d steps", tc.expr, e, tc.steps)
			continue
		}
		var got []string
		for _, it := range evalDefinition(t, p, doc.Root) {
			got = append(got, ItemString(it))
		}
		if !reflect.DeepEqual(got, tc.values) {
			t.Errorf("%s selects %q, want %q", tc.expr, got, tc.values)
		}
	}
	// Descendant-or-self: //Item selects the root itself.
	if got := evalDefinition(t, MustParseDefinition("//Item"), doc.Root); len(got) != 1 || got[0] != doc.Root {
		t.Fatalf("//Item = %v, want the root", got)
	}
	// "*" matches elements only, not attributes.
	for _, it := range evalDefinition(t, MustParseDefinition("/Item/*"), doc.Root) {
		if n := it.(*xmltree.Node); n.Kind != xmltree.ElementNode {
			t.Fatalf("/Item/* selected a %s node", n.Kind)
		}
	}
}

func TestParseDefinitionPredicates(t *testing.T) {
	doc := xmltree.MustParseString("i7", definitionItemXML)
	cases := []struct {
		expr string
		want bool
	}{
		{`/Item/Section = "CD"`, true},
		{`/Item/Section = "DVD"`, false},
		{`/Item/Section != "DVD"`, true},
		{`/Item/@id = "7"`, true},
		{`/Item/@id > 5`, true},  // numeric comparison
		{`/Item/@id < 5`, false}, // numeric comparison
		{`/Item/@id >= 7`, true},
		{`/Item/@id <= 6`, false},
		{`/Item/@id > -5`, true},
		{`/Item/Code > "I5"`, true}, // lexicographic fallback
		{`/Item/Characteristics = "large"`, true},
		{`/Item/Missing = "x"`, false},
		{`contains(//Description, "good")`, true},
		{`contains(//Description, "bad")`, false},
		{`not(contains(//Description, "good"))`, false},
		{`empty(/Item/PricesHistory)`, true},
		{`empty(/Item/PictureList)`, false},
		{`/Item/PictureList`, true}, // existential
		{`/Item/PricesHistory`, false},
		{`count(/Item/Characteristics) >= 2`, true},
		{`count(/Item/Characteristics) > 2`, false},
		{`count(//Picture) = 2`, true},
		{`true()`, true},
		{`/Item/Section = "CD" and contains(//Description, "good")`, true},
		{`/Item/Section = "CD" and /Item/Section = "DVD"`, false},
		{`(/Item/Section = "DVD" or /Item/Section = "CD")`, true},
		{`/Item/Section = "DVD" or /Item/Section = "Book"`, false},
		// and binds tighter than or: false and false or true = true
		{`/Item/Missing and /Item/Missing or true()`, true},
		{`(/Item/Missing or true()) and /Item/PictureList`, true},
		{`not(/Item/Missing) and /Item/PictureList`, true},
	}
	for _, tc := range cases {
		e, err := ParseDefinition(tc.expr)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		got, err := EffectiveBool(evalDefinition(t, e, doc.Root))
		if err != nil || got != tc.want {
			t.Errorf("%s = %v (%v), want %v", tc.expr, got, err, tc.want)
		}
	}
}

// TestDefinitionNumberComparesAsWritten: a bare numeric literal keeps
// its source text, which decides a comparison with a non-numeric value.
func TestDefinitionNumberComparesAsWritten(t *testing.T) {
	doc := xmltree.MustParseString("a", `<a>1x</a>`)
	for _, tc := range []struct {
		expr string
		want bool
	}{
		{`/a < 05`, false}, // "1x" < "05" as text; it would hold against "5"
		{`/a < 5`, true},
		{`/a > -5`, true}, // "1x" > "-5" as text
	} {
		if got, _ := EffectiveBool(evalDefinition(t, MustParseDefinition(tc.expr), doc.Root)); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

// TestDefinitionOverRepeatingChild: the σ of a hybrid fragment sees a
// document node over the repeating child, so its paths start at the
// child's label.
func TestDefinitionOverRepeatingChild(t *testing.T) {
	doc := xmltree.MustParseString("i7", definitionItemXML)
	pics := evalDefinition(t, MustParseDefinition("/Item/PictureList/Picture"), doc.Root)
	pred := MustParseDefinition(`/Picture/Name = "front"`)
	for i, want := range []bool{true, false} {
		if got, _ := EffectiveBool(evalDefinition(t, pred, pics[i].(*xmltree.Node))); got != want {
			t.Errorf("picture %d: %v, want %v", i, got, want)
		}
	}
}

// TestFigure2Definitions evaluates the three alternative horizontal
// designs of the paper's Figure 2 on two sample documents.
func TestFigure2Definitions(t *testing.T) {
	cd := xmltree.MustParseString("cd", `<Item><Code>c</Code><Name>n</Name><Description>good disc</Description><Section>CD</Section></Item>`)
	dvd := xmltree.MustParseString("dvd", `<Item><Code>c</Code><Name>n</Name><Description>fine movie</Description><Section>DVD</Section><PictureList><Picture><Name>p</Name><ModificationDate>m</ModificationDate><OriginalPath>o</OriginalPath><ThumbPath>t</ThumbPath></Picture></PictureList></Item>`)
	for _, tc := range []struct {
		expr        string
		onCD, onDVD bool
	}{
		{`/Item/Section = "CD"`, true, false},
		{`/Item/Section != "CD"`, false, true},
		{`contains(//Description, "good")`, true, false},
		{`not(contains(//Description, "good"))`, false, true},
		{`/Item/PictureList`, false, true},
		{`empty(/Item/PictureList)`, true, false},
	} {
		e := MustParseDefinition(tc.expr)
		for _, d := range []struct {
			doc  *xmltree.Document
			want bool
		}{{cd, tc.onCD}, {dvd, tc.onDVD}} {
			if got, _ := EffectiveBool(evalDefinition(t, e, d.doc.Root)); got != d.want {
				t.Errorf("%s on %s = %v, want %v", tc.expr, d.doc.Name, got, d.want)
			}
		}
	}
}

// TestFormatDefinition: a definition prints in the notation it is
// written in, and what it prints parses back to the same text.
func TestFormatDefinition(t *testing.T) {
	cases := []struct{ in, out string }{
		{`/Item/Section = "CD"`, ""},
		{`/Item/Section != "CD"`, ""},
		{`/Item/Price < "5"`, ""},
		{`/Item/Price <= "5"`, ""},
		{`/Item/Price > "5"`, ""},
		{`/Item/Price >= "5"`, ""},
		{`contains(//Description, "good")`, ""},
		{`not(contains(//Description, "good"))`, ""},
		{`empty(/Item/PictureList)`, ""},
		{`/Item/PictureList`, ""},
		{`count(/Item/Characteristics) >= 2`, ""},
		{`/Item/Section = "CD" and /Item/Code != "I1"`, ""},
		{`(/Item/Section = "CD" or /Item/Section = "DVD")`, ""},
		{`(/a = "1" or /a = "2" or /a = "3") and /b and not(/c)`, ""},
		{`true()`, ""},
		{`/Store/Items/Item`, ""},
		{`/Item/@id`, ""},
		{`//Description`, ""},
		{`/Item//Picture[1]`, ""},
		{`/Item/*/Name`, ""},
		{`/Item/@*`, ""},
		{`/Item/@id > 5`, `/Item/@id > "5"`},
		{`/Item/@id > -5.50`, `/Item/@id > "-5.50"`},
		{`/Item/Section = 'CD'`, `/Item/Section = "CD"`},
		{`/Item/Name = 'say "hi"'`, ""},
		{`/Item/Section='CD'and(/Item/Code="x")`, `/Item/Section = "CD" and /Item/Code = "x"`},
		{`/Item/Section = "CD" or /Item/Section = "DVD"`, `(/Item/Section = "CD" or /Item/Section = "DVD")`},
		{`Section`, `/Section`},
		{`Item/Section`, `/Item/Section`},
		{`@id`, `/@id`},
	}
	for _, tc := range cases {
		want := tc.out
		if want == "" {
			want = tc.in
		}
		e, err := ParseDefinition(tc.in)
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		got := FormatDefinition(e)
		if got != want {
			t.Errorf("%s prints %s, want %s", tc.in, got, want)
		}
		back, err := ParseDefinition(got)
		if err != nil {
			t.Errorf("%s: reparse of %s: %v", tc.in, got, err)
		} else if again := FormatDefinition(back); again != got {
			t.Errorf("%s: printing is not stable: %s, then %s", tc.in, got, again)
		}
	}
}

func TestParseDefinitionErrors(t *testing.T) {
	bad := []string{
		// paths
		"", "/", "/Item/", "/Item/@id/Code", "/Item[x]", "/Item[0]", "/Item[1.5]",
		"/Item[1", "/@a[2]", "/Item[1][1]", "/Item name", "/Item/&bad", "/Item/text()",
		`collection("c")/Item`, "$x/Item", "./Item",
		// predicates
		`/Item =`, `contains(/Item)`, `contains(/Item "x")`, `contains(/Item, /Code)`,
		`empty()`, `count(/a) = x`, `count(/a) = "2"`, `count(/a) = 1.5`, `count(/a)`,
		`/Item/Section = "unterminated`, `(/Item/Section = "CD"`, `/Item/Section = "CD") extra`,
		`not(/Item`, `true(`, `true(/a)`, `/a/b trailing`, `"CD" = /Item/Section`,
		`/a = /b`, `/a = 1 + 2`, `/a = 0 - 5`, `exists(/a)`, `/a, /b`,
		`for $i in /a return $i`, `<a/>`,
	}
	for _, expr := range bad {
		if e, err := ParseDefinition(expr); err == nil {
			t.Errorf("%q: accepted as %s", expr, FormatDefinition(e))
		}
	}
	// Queries keep rejecting a rooted path.
	if _, err := Parse("/Item"); err == nil {
		t.Error("a query accepted a rooted path")
	}
}
