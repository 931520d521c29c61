package fragmentation

import (
	"strings"
	"testing"

	"partix/internal/xmlschema"
	"partix/internal/xmltree"
)

func mkItem(name, code, section, desc string, pics bool) *xmltree.Document {
	xml := `<Item><Code>` + code + `</Code><Name>n</Name><Description>` + desc +
		`</Description><Section>` + section + `</Section>`
	if pics {
		xml += `<PictureList><Picture><Name>p</Name><ModificationDate>m</ModificationDate><OriginalPath>o</OriginalPath><ThumbPath>t</ThumbPath></Picture></PictureList>`
	}
	xml += `</Item>`
	return xmltree.MustParseString(name, xml)
}

func itemsCollection() *xmltree.Collection {
	return xmltree.NewCollection("Citems",
		mkItem("i1", "I1", "CD", "a good disc", true),
		mkItem("i2", "I2", "DVD", "a fine movie", false),
		mkItem("i3", "I3", "CD", "plain disc", false),
		mkItem("i4", "I4", "Book", "good reading", true),
	)
}

func storeCollection() *xmltree.Collection {
	return xmltree.NewCollection("Cstore", xmltree.MustParseString("store", `<Store>
	  <Sections><Section><Code>S1</Code><Name>CD</Name></Section></Sections>
	  <Items>
	    <Item id="1"><Code>I1</Code><Name>a</Name><Description>d1</Description><Section>CD</Section></Item>
	    <Item id="2"><Code>I2</Code><Name>b</Name><Description>d2</Description><Section>DVD</Section></Item>
	    <Item id="3"><Code>I3</Code><Name>c</Name><Description>d3</Description><Section>Book</Section></Item>
	  </Items>
	  <Employees><Employee>bob</Employee></Employees>
	</Store>`))
}

// horizontalBySectionScheme is the Figure 2(a) design extended to a full
// partition: one fragment per section plus a complement.
func horizontalBySectionScheme() *Scheme {
	return &Scheme{
		Collection: "Citems",
		Fragments: []*Fragment{
			MustHorizontal("F1cd", `/Item/Section = "CD"`),
			MustHorizontal("F2dvd", `/Item/Section = "DVD"`),
			MustHorizontal("F3rest", `/Item/Section != "CD" and /Item/Section != "DVD"`),
		},
	}
}

// verticalItemsScheme is Figure 3(a): F1items prunes PictureList, F2items
// carries it.
func verticalItemsScheme() *Scheme {
	return &Scheme{
		Collection: "Citems",
		Fragments: []*Fragment{
			MustVertical("F1items", "/Item", "/Item/PictureList"),
			MustVertical("F2items", "/Item/PictureList"),
		},
	}
}

// storeHybScheme is Figure 4: Items split horizontally by Section inside
// the SD store, the rest of the store pruned into F4items.
func storeHybScheme() *Scheme {
	return &Scheme{
		Collection: "Cstore",
		SD:         true,
		Fragments: []*Fragment{
			MustHybrid("F1items", "/Store/Items", nil, `/Item/Section = "CD"`),
			MustHybrid("F2items", "/Store/Items", nil, `/Item/Section = "DVD"`),
			MustHybrid("F3items", "/Store/Items", nil, `/Item/Section != "CD" and /Item/Section != "DVD"`),
			MustVertical("F4items", "/Store", "/Store/Items"),
		},
	}
}

func TestHorizontalSchemeCorrect(t *testing.T) {
	c := itemsCollection()
	s := horizontalBySectionScheme()
	if err := s.Check(c); err != nil {
		t.Fatal(err)
	}
	frags, err := s.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if frags[0].Len() != 2 || frags[1].Len() != 1 || frags[2].Len() != 1 {
		t.Fatalf("fragment sizes: %d %d %d", frags[0].Len(), frags[1].Len(), frags[2].Len())
	}
}

func TestHorizontalIncompleteDetected(t *testing.T) {
	c := itemsCollection()
	s := &Scheme{Collection: "Citems", Fragments: []*Fragment{
		MustHorizontal("F1", `/Item/Section = "CD"`),
		MustHorizontal("F2", `/Item/Section = "DVD"`),
	}}
	err := s.CheckCompleteness(c)
	if err == nil || !strings.Contains(err.Error(), "i4") {
		t.Fatalf("Book item not reported missing: %v", err)
	}
}

func TestHorizontalOverlapDetected(t *testing.T) {
	c := itemsCollection()
	s := &Scheme{Collection: "Citems", Fragments: []*Fragment{
		MustHorizontal("F1", `/Item/Section = "CD"`),
		MustHorizontal("F2", `contains(//Description, "disc")`), // overlaps F1
		MustHorizontal("F3", "true()"),
	}}
	if err := s.CheckDisjointness(c); err == nil {
		t.Fatal("overlap not detected")
	}
}

func TestVerticalSchemeCorrect(t *testing.T) {
	c := itemsCollection()
	s := verticalItemsScheme()
	if err := s.Check(c); err != nil {
		t.Fatal(err)
	}
}

func TestVerticalIncompleteDetected(t *testing.T) {
	c := itemsCollection()
	// Only the PictureList side: everything else is uncovered.
	s := &Scheme{Collection: "Citems", Fragments: []*Fragment{
		MustVertical("F2items", "/Item/PictureList"),
	}}
	if err := s.CheckCompleteness(c); err == nil {
		t.Fatal("missing nodes not detected")
	}
}

func TestVerticalOverlapDetected(t *testing.T) {
	c := itemsCollection()
	// F1 does not prune PictureList, so both own it.
	s := &Scheme{Collection: "Citems", Fragments: []*Fragment{
		MustVertical("F1items", "/Item"),
		MustVertical("F2items", "/Item/PictureList"),
	}}
	if err := s.CheckDisjointness(c); err == nil {
		t.Fatal("overlapping vertical fragments not detected")
	}
}

func TestXBenchVerticalScheme(t *testing.T) {
	c := xmltree.NewCollection("Cpapers",
		xmltree.MustParseString("a1", `<article id="a1"><prolog><title>t1</title></prolog><body><p>body text</p></body><epilog><ref>r</ref></epilog></article>`),
		xmltree.MustParseString("a2", `<article id="a2"><prolog><title>t2</title></prolog><body><p>more</p></body><epilog><ref>r2</ref></epilog></article>`),
	)
	s := &Scheme{Collection: "Cpapers", Fragments: []*Fragment{
		MustVertical("F1papers", "/article/prolog"),
		MustVertical("F2papers", "/article/body"),
		MustVertical("F3papers", "/article/epilog"),
	}}
	if err := s.Check(c); err != nil {
		t.Fatal(err)
	}
	frags, _ := s.Apply(c)
	// Every fragment document keeps the article spine and its id.
	for _, fc := range frags {
		for _, d := range fc.Docs {
			if d.Root.Name != "article" {
				t.Fatalf("%s: root %q", fc.Name, d.Root.Name)
			}
			if _, ok := d.Root.Attr("id"); !ok {
				t.Fatalf("%s: spine lost id attribute", fc.Name)
			}
		}
	}
}

func TestStoreHybSchemeCorrect(t *testing.T) {
	c := storeCollection()
	s := storeHybScheme()
	if err := s.Check(c); err != nil {
		t.Fatal(err)
	}
}

func TestHybridFragModes(t *testing.T) {
	c := storeCollection()
	f := MustHybrid("Fcd", "/Store/Items", nil, `/Item/Section = "CD"`)

	sd, err := f.ApplyMode(c, FragModeSD)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Len() != 1 || sd.Docs[0].Name != "store" {
		t.Fatalf("FragMode2: %d docs", sd.Len())
	}

	md, err := f.ApplyMode(c, FragModeMD)
	if err != nil {
		t.Fatal(err)
	}
	if md.Len() != 1 {
		t.Fatalf("FragMode1: %d docs, want 1 (one CD item)", md.Len())
	}
	if md.Docs[0].Root.Name != "Item" {
		t.Fatalf("FragMode1 root = %q", md.Docs[0].Root.Name)
	}
	if !strings.HasPrefix(md.Docs[0].Name, "store#") {
		t.Fatalf("FragMode1 doc name = %q", md.Docs[0].Name)
	}
	if FragModeSD.String() != "FragMode2" || FragModeMD.String() != "FragMode1" {
		t.Fatal("mode names wrong")
	}
}

func TestValidateStaticRules(t *testing.T) {
	cases := []struct {
		name   string
		scheme *Scheme
	}{
		{"empty", &Scheme{Collection: "c"}},
		{"dup names", &Scheme{Collection: "c", Fragments: []*Fragment{
			MustHorizontal("F", "true()"), MustHorizontal("F", "true()"),
		}}},
		{"empty name", &Scheme{Collection: "c", Fragments: []*Fragment{
			MustHorizontal("", "true()"),
		}}},
		{"mixed kinds", &Scheme{Collection: "c", Fragments: []*Fragment{
			MustHorizontal("F1", "true()"), MustVertical("F2", "/a"),
		}}},
		{"horizontal on SD", &Scheme{Collection: "c", SD: true, Fragments: []*Fragment{
			MustHorizontal("F1", "true()"),
		}}},
		{"prune not prefixed", &Scheme{Collection: "c", Fragments: []*Fragment{
			MustVertical("F1", "/a/b", "/a/c"),
		}}},
		{"horizontal with path", &Scheme{Collection: "c", Fragments: []*Fragment{
			{Name: "F1", Kind: Horizontal, Predicate: MustHorizontal("x", "true()").Predicate,
				Path: MustVertical("y", "/a").Path},
		}}},
		{"vertical without path", &Scheme{Collection: "c", Fragments: []*Fragment{
			{Name: "F1", Kind: Vertical},
		}}},
		{"hybrid without predicate", &Scheme{Collection: "c", Fragments: []*Fragment{
			{Name: "F1", Kind: Hybrid, Path: MustVertical("y", "/a").Path},
		}}},
		{"vertical with predicate", &Scheme{Collection: "c", Fragments: []*Fragment{
			{Name: "F1", Kind: Vertical, Path: MustVertical("y", "/a").Path,
				Predicate: MustHorizontal("x", "true()").Predicate},
		}}},
	}
	for _, tc := range cases {
		if err := tc.scheme.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestValidateAcceptsPaperSchemes(t *testing.T) {
	for _, s := range []*Scheme{horizontalBySectionScheme(), verticalItemsScheme(), storeHybScheme()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Collection, err)
		}
	}
}

func TestSchemaCardinalityCheck(t *testing.T) {
	schema := xmlschema.VirtualStore()

	ok := &Scheme{Collection: "Citems", Schema: schema, RootType: "Item", Fragments: []*Fragment{
		MustVertical("F1", "/Item", "/Item/PictureList"),
		MustVertical("F2", "/Item/PictureList"),
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scheme rejected: %v", err)
	}

	// /Item/PictureList/Picture may repeat: rejected without [i].
	bad := &Scheme{Collection: "Citems", Schema: schema, RootType: "Item", Fragments: []*Fragment{
		MustVertical("F1", "/Item/PictureList/Picture"),
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("repeatable path accepted")
	}

	// ...but allowed when the position is fixed (Definition 3).
	fixed := &Scheme{Collection: "Citems", Schema: schema, RootType: "Item", Fragments: []*Fragment{
		MustVertical("F1", "/Item/PictureList/Picture[1]"),
	}}
	if err := fixed.Validate(); err != nil {
		t.Fatalf("positional path rejected: %v", err)
	}

	rejects := []*Fragment{
		MustVertical("F1", "/Item//Picture[1]"), // descendant axis
		MustVertical("F1", "/Item/Nope"),        // unknown step
		MustVertical("F1", "/Other"),            // wrong root
		MustVertical("F1", "/Item/@id"),         // attribute path
	}
	for _, f := range rejects {
		s := &Scheme{Collection: "Citems", Schema: schema, RootType: "Item", Fragments: []*Fragment{f}}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", f)
		}
	}

	noRoot := &Scheme{Collection: "Citems", Schema: schema, Fragments: []*Fragment{
		MustVertical("F1", "/Item"),
	}}
	if err := noRoot.Validate(); err == nil {
		t.Error("schema without root type accepted")
	}
}

func TestFragmentStringNotation(t *testing.T) {
	h := MustHorizontal("F1CD", `/Item/Section = "CD"`)
	if !strings.Contains(h.String(), "σ") || !strings.Contains(h.String(), "F1CD") {
		t.Errorf("horizontal notation: %s", h)
	}
	v := MustVertical("F1items", "/Item", "/Item/PictureList")
	if !strings.Contains(v.String(), "π") || !strings.Contains(v.String(), "{/Item/PictureList}") {
		t.Errorf("vertical notation: %s", v)
	}
	y := MustHybrid("F1", "/Store/Items", nil, `/Item/Section = "CD"`)
	if !strings.Contains(y.String(), "•") {
		t.Errorf("hybrid notation: %s", y)
	}
	if Horizontal.String() != "horizontal" || Vertical.String() != "vertical" || Hybrid.String() != "hybrid" {
		t.Error("kind names wrong")
	}
}

func TestSchemeFragmentLookup(t *testing.T) {
	s := horizontalBySectionScheme()
	if s.Fragment("F1cd") == nil || s.Fragment("nope") != nil {
		t.Fatal("Fragment lookup wrong")
	}
	if !s.AllHorizontal() {
		t.Fatal("AllHorizontal wrong")
	}
	if verticalItemsScheme().AllHorizontal() {
		t.Fatal("vertical scheme reported all-horizontal")
	}
}

func TestReconstructionRoundTripMutants(t *testing.T) {
	// Damaging a fragment must make CheckReconstruction fail.
	c := itemsCollection()
	s := verticalItemsScheme()
	frags, err := s.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	frags[0].Docs[0].Root.Child("Code").Children[0].Value = "corrupted"
	re, err := s.Reconstruct(frags)
	if err != nil {
		t.Fatal(err)
	}
	if xmltree.EqualCollections(c, re) {
		t.Fatal("corruption survived reconstruction comparison")
	}
}
