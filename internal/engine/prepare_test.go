package engine

import (
	"fmt"
	"strings"
	"testing"
)

// The prepared-text cache: a repeated text returns the entry its first
// Prepare kept, at most prepareCap entries stay, a text longer than
// prepareMaxText is prepared for its run but not kept, a text that does
// not parse keeps nothing, and one string kept as a query, a fetch filter
// and a projection is three entries.
func TestPrepareKeepsBoundedEntries(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	const q = `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`
	p1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := db.Prepare(q); p2 != p1 {
		t.Fatal("a repeated text was prepared afresh")
	}
	if p1.prog == nil || p1.Normalized == "" || len(p1.Keys["items"].Predicates) != 1 || len(p1.collections) != 1 {
		t.Fatalf("entry misses what a run needs: %+v", p1)
	}
	for i := 0; i < 2*prepareCap; i++ {
		if _, err := db.Prepare(fmt.Sprintf(`collection("items")/Item[Code = "I%d"]/Name`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.prepared.Len(); n != prepareCap {
		t.Fatalf("%d entries kept, want the cap %d", n, prepareCap)
	}
	if p3, _ := db.Prepare(q); p3 == p1 {
		t.Fatal("the least recently used entry survived the cap")
	}

	db.prepared.Clear()
	long := `count(collection("items")/Item[Name != "` + strings.Repeat("x", prepareMaxText) + `"])`
	for i := 0; i < 2; i++ {
		seq, err := db.Query(long)
		if err != nil || len(seq) != 1 || seq[0] != 4.0 {
			t.Fatalf("long text answered %v, %v", seq, err)
		}
	}
	if _, err := db.Prepare(`for $i in`); err == nil {
		t.Fatal("a broken text prepared")
	}
	if n := db.prepared.Len(); n != 0 {
		t.Fatalf("%d entries kept for a long and a broken text, want none", n)
	}

	filter := `for $v in collection("items")/Item where $v/Section = "CD" return $v`
	if _, err := db.Prepare(filter); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var names []string
		if err := db.Fetch("items", nil, filter, func(name string, _ []byte) error {
			names = append(names, name)
			return nil
		}); err != nil || fmt.Sprint(names) != "[i1 i4]" {
			t.Fatalf("filtered fetch: %v, %v", names, err)
		}
	}
	// The kept filter is checked against each fetch's collection.
	if err := db.Fetch("other", nil, filter, func(string, []byte) error { return nil }); err == nil {
		t.Fatal("a filter over items ran as a fetch of another collection")
	}
	if _, err := db.Projection(filter); err == nil {
		t.Fatal("a query text parsed as a projection")
	}
	if _, err := db.Projection("{Item{Code}}"); err != nil {
		t.Fatal(err)
	}
	if n := db.prepared.Len(); n != 3 {
		t.Fatalf("one query, one filter and one projection kept %d entries, want 3", n)
	}
}
