package engine

import (
	"fmt"
	"strings"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func TestCollectionStatisticsSnapshot(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	cs, err := db.CollectionStatistics("items")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Docs != 4 || cs.Bytes <= 0 {
		t.Fatalf("docs/bytes = %d/%d", cs.Docs, cs.Bytes)
	}
	if !cs.Complete {
		t.Fatalf("snapshot not complete: %+v", cs)
	}
	id, ok := cs.Paths["Item/@id"]
	if !ok {
		t.Fatalf("no stats for Item/@id; paths: %v", pathKeys(cs))
	}
	// Ids are 1..4, one per doc, all numeric and distinct.
	if id.Docs != 4 || id.Nodes != 4 || id.Distinct != 4 || id.NonNumeric != 0 || id.Overflow != 0 {
		t.Fatalf("Item/@id stats: %+v", id)
	}
	if !id.HasNum || id.MinNum != 1 || id.MaxNum != 4 {
		t.Fatalf("Item/@id numeric range: %+v", id)
	}
	sec, ok := cs.Paths["Item/Section"]
	if !ok {
		t.Fatalf("no stats for Item/Section; paths: %v", pathKeys(cs))
	}
	// Sections are CD, DVD, Book, CD: three distinct values, none numeric.
	if sec.Docs != 4 || sec.Distinct != 3 || sec.NonNumeric != 3 {
		t.Fatalf("Item/Section stats: %+v", sec)
	}
	if sec.HasNum || sec.MinStr != "Book" || sec.MaxStr != "DVD" {
		t.Fatalf("Item/Section ranges: %+v", sec)
	}
}

func TestCollectionStatisticsOverflow(t *testing.T) {
	db := testDB(t, Options{})
	c := xmltree.NewCollection("c")
	c.Add(xmltree.MustParseString("short", `<Item><Blob>small</Blob></Item>`))
	c.Add(xmltree.MustParseString("long", `<Item><Blob>`+strings.Repeat("x", valueCap+1)+`</Blob></Item>`))
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
	cs, err := db.CollectionStatistics("c")
	if err != nil {
		t.Fatal(err)
	}
	ps := cs.Paths["Item/Blob"]
	if ps.Docs != 2 || ps.Distinct != 1 || ps.Overflow != 1 {
		t.Fatalf("Item/Blob stats: %+v", ps)
	}
}

func TestCollectionStatisticsGeneration(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	g0 := db.Generation("items")
	if g0 == 0 {
		t.Fatal("LoadCollection did not bump the generation")
	}
	if err := db.PutDocument("items", xmltree.MustParseString("i9",
		`<Item id="9"><Code>I9</Code><Section>CD</Section></Item>`)); err != nil {
		t.Fatal(err)
	}
	g1 := db.Generation("items")
	if g1 <= g0 {
		t.Fatalf("PutDocument: generation %d -> %d", g0, g1)
	}
	if err := db.DeleteDocument("items", "i9"); err != nil {
		t.Fatal(err)
	}
	g2 := db.Generation("items")
	if g2 <= g1 {
		t.Fatalf("DeleteDocument: generation %d -> %d", g1, g2)
	}
	cs, err := db.CollectionStatistics("items")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Generation != g2 {
		t.Fatalf("snapshot generation %d, current %d", cs.Generation, g2)
	}
}

// TestCollectionStatisticsIncomplete: doc and byte counts survive, but no
// exclusion-grade path table is promised when the collection has more
// label paths than statsPathCap, nor when indexes are disabled.
func TestCollectionStatisticsIncomplete(t *testing.T) {
	var wide strings.Builder
	wide.WriteString("<r>")
	for i := 0; i <= statsPathCap; i++ {
		fmt.Fprintf(&wide, "<p%d/>", i)
	}
	wide.WriteString("</r>")
	for _, tc := range []struct {
		name string
		opts Options
		load func(*DB)
		docs int64
	}{
		{"over path cap", Options{}, func(db *DB) {
			if err := db.PutDocument("items", xmltree.MustParseString("wide", wide.String())); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"indexes disabled", Options{DisableIndexes: true}, func(db *DB) { loadItems(t, db) }, 4},
	} {
		db := testDB(t, tc.opts)
		tc.load(db)
		cs, err := db.CollectionStatistics("items")
		if err != nil {
			t.Fatal(err)
		}
		if cs.Complete || cs.Paths != nil || cs.Docs != tc.docs || cs.Bytes <= 0 {
			t.Fatalf("%s: stats %+v", tc.name, cs)
		}
		if _, err := db.CollectionStatistics("nope"); err == nil {
			t.Fatalf("%s: unknown collection did not error", tc.name)
		}
	}
}

func TestPathKeyMatches(t *testing.T) {
	step := func(name string) xquery.LabelStep { return xquery.LabelStep{Name: name} }
	attr := func(name string) xquery.LabelStep { return xquery.LabelStep{Name: name, Attr: true} }
	desc := func(name string) xquery.LabelStep { return xquery.LabelStep{Name: name, Descendant: true} }
	cases := []struct {
		name  string
		steps []xquery.LabelStep
		key   string
		want  bool
	}{
		{"attr match", []xquery.LabelStep{step("Item"), attr("id")}, "Item/@id", true},
		{"attr vs element", []xquery.LabelStep{step("Item"), attr("id")}, "Item/id", false},
		{"exact path", []xquery.LabelStep{step("Item"), step("Code")}, "Item/Code", true},
		{"descendant", []xquery.LabelStep{desc("Code")}, "Item/Code", true},
		{"descendant miss", []xquery.LabelStep{desc("Code")}, "Item/Section", false},
		{"wildcard", []xquery.LabelStep{step("Item"), step("*")}, "Item/Code", true},
		{"anchored at root", []xquery.LabelStep{step("Item")}, "Order/Item", false},
	}
	for _, c := range cases {
		if got := PathKeyMatches(c.steps, c.key); got != c.want {
			t.Errorf("%s: PathKeyMatches(_, %q) = %v, want %v", c.name, c.key, got, c.want)
		}
	}
}

func pathKeys(cs *CollectionStatistics) []string {
	var keys []string
	for k := range cs.Paths {
		keys = append(keys, k)
	}
	return keys
}
