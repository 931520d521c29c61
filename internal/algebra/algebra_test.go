package algebra

import (
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// mustPath parses a definition path.
func mustPath(text string) *xquery.PathExpr {
	return xquery.MustParseDefinition(text).(*xquery.PathExpr)
}

func itemsCollection() *xmltree.Collection {
	mk := func(name, code, section, desc string, pics bool) *xmltree.Document {
		xml := `<Item><Code>` + code + `</Code><Name>n</Name><Description>` + desc +
			`</Description><Section>` + section + `</Section>`
		if pics {
			xml += `<PictureList><Picture><Name>p</Name><ModificationDate>m</ModificationDate><OriginalPath>o</OriginalPath><ThumbPath>t</ThumbPath></Picture></PictureList>`
		}
		xml += `</Item>`
		return xmltree.MustParseString(name, xml)
	}
	return xmltree.NewCollection("items",
		mk("i1", "I1", "CD", "a good disc", true),
		mk("i2", "I2", "DVD", "a fine movie", false),
		mk("i3", "I3", "CD", "plain disc", false),
		mk("i4", "I4", "Book", "good reading", true),
	)
}

func storeDoc() *xmltree.Document {
	return xmltree.MustParseString("store", `<Store>
	  <Sections>
	    <Section><Code>S1</Code><Name>CD</Name></Section>
	    <Section><Code>S2</Code><Name>DVD</Name></Section>
	  </Sections>
	  <Items>
	    <Item id="1"><Code>I1</Code><Name>a</Name><Description>d1</Description><Section>CD</Section></Item>
	    <Item id="2"><Code>I2</Code><Name>b</Name><Description>d2</Description><Section>DVD</Section></Item>
	    <Item id="3"><Code>I3</Code><Name>c</Name><Description>d3</Description><Section>CD</Section></Item>
	  </Items>
	  <Employees><Employee>bob</Employee></Employees>
	</Store>`)
}

func TestSelectHorizontal(t *testing.T) {
	c := itemsCollection()
	cd := Select("cd", c, xquery.MustParseDefinition(`/Item/Section = "CD"`))
	if cd.Len() != 2 || cd.Doc("i1") == nil || cd.Doc("i3") == nil {
		t.Fatalf("CD fragment: %d docs", cd.Len())
	}
	// Fragment documents are copies: mutating them must not touch c.
	cd.Doc("i1").Root.Child("Code").Children[0].Value = "changed"
	if c.Doc("i1").Root.Child("Code").Text() == "changed" {
		t.Fatal("Select shares nodes with source collection")
	}
}

func TestSelectComplementPartition(t *testing.T) {
	c := itemsCollection()
	pred := xquery.MustParseDefinition(`contains(//Description, "good")`)
	f1 := Select("good", c, pred)
	f2 := Select("rest", c, &xquery.FuncCall{Name: "not", Args: []xquery.Expr{pred}})
	if f1.Len()+f2.Len() != c.Len() {
		t.Fatalf("partition sizes %d+%d != %d", f1.Len(), f2.Len(), c.Len())
	}
	re, err := Union("items", f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCollections(c, re) {
		t.Fatal("union of complements != original")
	}
}

func TestUnionDetectsOverlap(t *testing.T) {
	c := itemsCollection()
	all := Select("all", c, &xquery.FuncCall{Name: "true"})
	cd := Select("cd", c, xquery.MustParseDefinition(`/Item/Section = "CD"`))
	if _, err := Union("x", all, cd); err == nil {
		t.Fatal("overlapping fragments accepted by Union")
	}
}

func TestProjectSubtree(t *testing.T) {
	c := itemsCollection()
	pics := ProjectCollection("pics", c, mustPath("/Item/PictureList"), nil)
	// Only i1 and i4 have pictures.
	if pics.Len() != 2 || pics.Doc("i1") == nil || pics.Doc("i4") == nil {
		t.Fatalf("pics fragment: %d docs", pics.Len())
	}
	d := pics.Doc("i1")
	// Spine: Item root kept, only PictureList under it.
	if d.Root.Name != "Item" {
		t.Fatalf("projected root = %q", d.Root.Name)
	}
	if len(d.Root.Children) != 1 || d.Root.Children[0].Name != "PictureList" {
		t.Fatalf("projected children = %v", d.Root.Children)
	}
	if d.Root.Child("PictureList").Child("Picture").Child("Name").Text() != "p" {
		t.Fatal("projected subtree content lost")
	}
}

func TestProjectWithPrune(t *testing.T) {
	c := itemsCollection()
	noPics := ProjectCollection("nopics", c,
		mustPath("/Item"),
		[]*xquery.PathExpr{mustPath("/Item/PictureList")})
	if noPics.Len() != 4 {
		t.Fatalf("pruned fragment: %d docs, want all 4", noPics.Len())
	}
	for _, d := range noPics.Docs {
		if d.Root.Child("PictureList") != nil {
			t.Fatalf("%s still has PictureList", d.Name)
		}
		if d.Root.Child("Code") == nil {
			t.Fatalf("%s lost Code", d.Name)
		}
	}
}

func TestProjectNothingSelected(t *testing.T) {
	doc := xmltree.MustParseString("d", "<Item><Code>c</Code></Item>")
	if Project(doc, mustPath("/Item/PictureList"), nil) != nil {
		t.Fatal("projection of absent path should be nil")
	}
	// Pruning away the selected node itself leaves nothing.
	if Project(doc, mustPath("/Item/Code"), []*xquery.PathExpr{mustPath("/Item/Code")}) != nil {
		t.Fatal("fully pruned projection should be nil")
	}
}

func TestProjectSpineKeepsAttributes(t *testing.T) {
	doc := xmltree.MustParseString("a", `<article id="a1"><prolog><title>t</title></prolog><body><p>x</p></body></article>`)
	prolog := Project(doc, mustPath("/article/prolog"), nil)
	if prolog.Root.Name != "article" {
		t.Fatalf("root = %q", prolog.Root.Name)
	}
	if v, ok := prolog.Root.Attr("id"); !ok || v != "a1" {
		t.Fatal("spine lost root attribute")
	}
	if prolog.Root.Child("body") != nil {
		t.Fatal("spine leaked sibling subtree")
	}
	if prolog.Root.Child("prolog").Child("title").Text() != "t" {
		t.Fatal("projected content lost")
	}
}

func TestProjectPreservesIDs(t *testing.T) {
	doc := storeDoc()
	orig := SelectPath(mustPath("/Store/Items"), doc)[0]
	frag := Project(doc, mustPath("/Store/Items"), nil)
	got := SelectPath(mustPath("/Store/Items"), frag)[0]
	if got.ID != orig.ID {
		t.Fatalf("Items ID %d != original %d", got.ID, orig.ID)
	}
	if frag.Root.ID != doc.Root.ID {
		t.Fatal("spine root ID changed")
	}
}

func TestVerticalJoinReconstructs(t *testing.T) {
	doc := storeDoc()
	c := xmltree.NewCollection("store", doc)

	f1 := ProjectCollection("f1", c, mustPath("/Store"),
		[]*xquery.PathExpr{mustPath("/Store/Items")})
	f2 := ProjectCollection("f2", c, mustPath("/Store/Items"), nil)

	re, err := Join("store", f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCollections(c, re) {
		t.Fatalf("join != original: %s", xmltree.Diff(c.Docs[0].Root, re.Docs[0].Root))
	}
}

func TestThreeWayVerticalJoin(t *testing.T) {
	// XBenchVer-style: prolog / body / epilog fragments share only the
	// article spine.
	doc := xmltree.MustParseString("a1", `<article id="a1"><prolog><title>t</title></prolog><body><p>one</p><p>two</p></body><epilog><ref>r</ref></epilog></article>`)
	c := xmltree.NewCollection("articles", doc)
	var frags []*xmltree.Collection
	for _, p := range []string{"/article/prolog", "/article/body", "/article/epilog"} {
		frags = append(frags, ProjectCollection(p, c, mustPath(p), nil))
	}
	re, err := Join("articles", frags...)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCollections(c, re) {
		t.Fatalf("3-way join != original: %s", xmltree.Diff(doc.Root, re.Docs[0].Root))
	}
}

// TestJoinTakesOwnership: Join builds the merged tree from the fragment
// documents' own nodes — no copies — with every Parent pointer pointing at
// the node's parent in the merged tree, and equals a join over copies.
func TestJoinTakesOwnership(t *testing.T) {
	doc := storeDoc()
	c := xmltree.NewCollection("store", doc)
	itemsPath := mustPath("/Store/Items")
	fragments := func() []*xmltree.Collection {
		out := []*xmltree.Collection{
			ProjectCollection("f4", c, mustPath("/Store"), []*xquery.PathExpr{itemsPath}),
		}
		for _, pred := range []string{`/Item/Section = "CD"`, `/Item/Section != "CD"`} {
			out = append(out, xmltree.NewCollection(pred,
				FilterChildren(Project(doc, itemsPath, nil), itemsPath, xquery.MustParseDefinition(pred))))
		}
		return out
	}
	copies := fragments()
	for i, f := range copies {
		copies[i] = f.Clone()
	}
	want, err := Join("store", copies...)
	if err != nil {
		t.Fatal(err)
	}

	frags := fragments()
	owned := map[*xmltree.Node]bool{}
	for _, f := range frags {
		f.Docs[0].Root.Walk(func(n *xmltree.Node) bool { owned[n] = true; return true })
	}
	got, err := Join("store", frags...)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCollections(got, want) || !xmltree.EqualCollections(got, c) {
		t.Fatalf("join differs: %s", xmltree.Diff(want.Docs[0].Root, got.Docs[0].Root))
	}
	if err := got.Docs[0].Validate(); err != nil {
		t.Fatalf("merged tree: %v", err)
	}
	got.Docs[0].Root.Walk(func(n *xmltree.Node) bool {
		if !owned[n] {
			t.Fatalf("merged node %s (ID %d) is not a fragment's node", n.Path(), n.ID)
		}
		return true
	})
}

func TestMergeByIDErrors(t *testing.T) {
	if _, err := MergeByID(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	a := xmltree.MustParseString("x", "<a><b>1</b></a>")
	b := xmltree.MustParseString("y", "<a><b>1</b></a>")
	if _, err := MergeByID([]*xmltree.Document{a, b}); err == nil {
		t.Fatal("cross-name merge accepted")
	}
	// Same name, same root ID, different label: conflict.
	c1 := xmltree.MustParseString("x", "<a/>")
	c2 := xmltree.MustParseString("x", "<b/>")
	if _, err := MergeByID([]*xmltree.Document{c1, c2}); err == nil {
		t.Fatal("conflicting roots merged")
	}
}

func TestFilterChildrenHybrid(t *testing.T) {
	doc := storeDoc()
	frag := Project(doc, mustPath("/Store/Items"), nil)
	FilterChildren(frag, mustPath("/Store/Items"),
		xquery.MustParseDefinition(`/Item/Section = "CD"`))
	items := SelectPath(mustPath("/Store/Items/Item"), frag)
	if len(items) != 2 {
		t.Fatalf("filtered items = %d, want 2", len(items))
	}
	for _, it := range items {
		if it.Child("Section").Text() != "CD" {
			t.Fatalf("kept non-CD item %s", it.Child("Code").Text())
		}
	}
	if FilterChildren(nil, nil, nil) != nil {
		t.Fatal("nil doc not passed through")
	}
}

func TestHybridPartitionJoinReconstructs(t *testing.T) {
	// The StoreHyb design of the paper's Figure 4: prune Items into F4 and
	// split Items horizontally by Section into three fragments.
	doc := storeDoc()
	c := xmltree.NewCollection("store", doc)
	itemsPath := mustPath("/Store/Items")

	f4 := ProjectCollection("f4", c, mustPath("/Store"), []*xquery.PathExpr{itemsPath})
	mkHoriz := func(name, pred string) *xmltree.Collection {
		out := xmltree.NewCollection(name)
		for _, d := range c.Docs {
			pd := Project(d, itemsPath, nil)
			pd = FilterChildren(pd, itemsPath, xquery.MustParseDefinition(pred))
			if pd != nil {
				out.Add(pd)
			}
		}
		return out
	}
	f1 := mkHoriz("f1", `/Item/Section = "CD"`)
	f2 := mkHoriz("f2", `/Item/Section = "DVD"`)
	f3 := mkHoriz("f3", `/Item/Section != "CD" and /Item/Section != "DVD"`)

	re, err := Join("store", f4, f1, f2, f3)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCollections(c, re) {
		t.Fatalf("hybrid reconstruction failed: %s", xmltree.Diff(doc.Root, re.Docs[0].Root))
	}
}

func TestOwnedIDsVertical(t *testing.T) {
	doc := storeDoc()
	itemsPath := mustPath("/Store/Items")
	ownedF2 := OwnedIDs(doc, itemsPath, nil, nil)
	ownedF1 := OwnedIDs(doc, mustPath("/Store"), []*xquery.PathExpr{itemsPath}, nil)

	// Disjoint and together covering everything.
	for id := range ownedF1 {
		if ownedF2[id] {
			t.Fatalf("ID %d owned by both fragments", id)
		}
	}
	total := doc.CountNodes()
	if len(ownedF1)+len(ownedF2) != total {
		t.Fatalf("coverage %d+%d != %d nodes", len(ownedF1), len(ownedF2), total)
	}
}

func TestOwnedIDsHybridExcludesAnchor(t *testing.T) {
	doc := storeDoc()
	itemsPath := mustPath("/Store/Items")
	itemsNode := SelectPath(itemsPath, doc)[0]
	owned := OwnedIDs(doc, itemsPath, nil, xquery.MustParseDefinition(`/Item/Section = "CD"`))
	if owned[itemsNode.ID] {
		t.Fatal("hybrid fragment owns its anchor node")
	}
	// It owns exactly the two CD item subtrees.
	cdItems := 0
	for _, it := range itemsNode.ElementChildren() {
		if it.Child("Section").Text() == "CD" {
			it.Walk(func(n *xmltree.Node) bool {
				if !owned[n.ID] {
					t.Fatalf("CD item node %d not owned", n.ID)
				}
				return true
			})
			cdItems++
		} else if owned[it.ID] {
			t.Fatal("non-CD item owned")
		}
	}
	if cdItems != 2 {
		t.Fatalf("cd items = %d", cdItems)
	}
}

func TestOwnedIDsSkipsPrunedSelection(t *testing.T) {
	doc := storeDoc()
	p := mustPath("/Store/Items")
	owned := OwnedIDs(doc, p, []*xquery.PathExpr{p}, nil)
	if len(owned) != 0 {
		t.Fatalf("pruned selection owns %d nodes", len(owned))
	}
}
