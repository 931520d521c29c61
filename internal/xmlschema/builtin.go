package xmlschema

// This file declares the two schemas the paper's evaluation uses:
// Svirtual_store (Figure 1(a)) and the XBench-style article schema used by
// the XBenchVer database (Section 5, vertical fragmentation: fragments
// /article/prolog, /article/body, /article/epilog).

// VirtualStore builds Svirtual_store from the paper's Figure 1(a). Implicit
// cardinalities are 1..1; the figure marks Section, Item, Employee, Picture
// and PriceHistory as 1..n, Characteristics as 0..n, and PictureList and
// PricesHistory as 0..1. Release is optional (0..1): it marks newly
// released items.
func VirtualStore() *Schema {
	s := New("virtual_store")

	code := Text(s.Element("Code"))
	name := Text(s.Element("Name"))
	desc := Text(s.Element("Description"))
	section := Text(s.Element("Section"))
	release := Text(s.Element("Release"))
	characteristics := Text(s.Element("Characteristics"))
	modDate := Text(s.Element("ModificationDate"))
	origPath := Text(s.Element("OriginalPath"))
	thumbPath := Text(s.Element("ThumbPath"))
	price := Text(s.Element("Price"))
	employee := Text(s.Element("Employee"))

	picture := Seq(s.Element("Picture"),
		P(name, One),
		P(desc, Optional),
		P(modDate, One),
		P(origPath, One),
		P(thumbPath, One),
	)
	pictureList := Seq(s.Element("PictureList"), P(picture, OneOrMore))

	priceHistory := Seq(s.Element("PriceHistory"),
		P(price, One),
		P(modDate, One),
	)
	pricesHistory := Seq(s.Element("PricesHistory"), P(priceHistory, OneOrMore))

	item := Seq(s.Element("Item"),
		P(code, One),
		P(name, One),
		P(desc, One),
		P(section, One),
		P(release, Optional),
		P(characteristics, ZeroOrMore),
		P(pictureList, Optional),
		P(pricesHistory, Optional),
	)
	item.Attributes = []AttrDecl{{Name: "id", Required: false}}

	sectionDef := Seq(s.Element("SectionDef"),
		P(code, One),
		P(name, One),
	)
	sectionDef.Label = "Section" // same element name as Item's Section, different type
	sections := Seq(s.Element("Sections"), P(sectionDef, OneOrMore))
	items := Seq(s.Element("Items"), P(item, ZeroOrMore))
	employees := Seq(s.Element("Employees"), P(employee, OneOrMore))

	Seq(s.Element("Store"),
		P(sections, One),
		P(items, One),
		P(employees, One),
	)
	return s
}

// CItems returns the spec of the MD collection
// Citems := ⟨Svirtual_store, /Store/Items/Item⟩ of Figure 1(b): one document
// per Item.
func CItems() CollectionSpec {
	return CollectionSpec{Schema: VirtualStore(), RootType: "Item", SD: false}
}

// CStore returns the spec of the SD collection
// Cstore := ⟨Svirtual_store, /Store⟩ of Figure 1(b): a single Store document.
func CStore() CollectionSpec {
	return CollectionSpec{Schema: VirtualStore(), RootType: "Store", SD: true}
}

// XBenchArticle builds the article schema used by the XBenchVer database.
// XBench's text-centric documents are articles with a prolog (metadata),
// a body (sections of paragraphs — the bulk of the document) and an epilog
// (references and acknowledgements); the paper fragments the collection
// vertically along exactly these three subtrees.
func XBenchArticle() *Schema {
	s := New("xbench_article")

	title := Text(s.Element("title"))
	author := Text(s.Element("author"))
	genre := Text(s.Element("genre"))
	keyword := Text(s.Element("keyword"))
	date := Text(s.Element("date"))
	abstract := Text(s.Element("abstract"))
	p := Text(s.Element("p"))
	aID := Text(s.Element("a_id"))
	ack := Text(s.Element("acknowledgements"))
	country := Text(s.Element("country"))

	authors := Seq(s.Element("authors"), P(author, OneOrMore))
	keywords := Seq(s.Element("keywords"), P(keyword, ZeroOrMore))

	prolog := Seq(s.Element("prolog"),
		P(title, One),
		P(authors, One),
		P(genre, One),
		P(keywords, One),
		P(date, One),
	)

	section := Seq(s.Element("section"),
		P(title, One),
		P(p, OneOrMore),
	)
	body := Seq(s.Element("body"),
		P(abstract, Optional),
		P(section, OneOrMore),
	)

	references := Seq(s.Element("references"), P(aID, ZeroOrMore))
	epilog := Seq(s.Element("epilog"),
		P(references, One),
		P(ack, Optional),
		P(country, Optional),
	)

	article := Seq(s.Element("article"),
		P(prolog, One),
		P(body, One),
		P(epilog, One),
	)
	article.Attributes = []AttrDecl{{Name: "id", Required: true}}
	return s
}
