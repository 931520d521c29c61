package engine

import (
	"os"
	"path/filepath"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// testdata/v1store/items.db is a store written before records carried
// subtree extents and a checksum: loadItems' four Items, stored as
// version 1 records, and the index snapshot of that time. A store like it
// must open, answer queries (whole and projected decodes), and rewrite a
// document it puts as a sealed version 2 record, leaving the others as
// they are.
func TestVersion1StoreStaysReadable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1store", "items.db"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "items.db")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	version := func(db *DB, name string) byte {
		t.Helper()
		raw, err := db.Store().GetDocumentRaw("items", name)
		if err != nil {
			t.Fatal(err)
		}
		return raw[0]
	}
	query := func(db *DB, q string) []string {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res))
		for i, it := range res {
			out[i] = xquery.ItemString(it)
		}
		return out
	}
	const cd = `for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`
	const whole = `for $i in collection("items")/Item where contains($i/Description, "good") return $i`

	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"i1", "i2", "i3", "i4"} {
		if v := version(db, name); v != 1 {
			t.Fatalf("fixture record %s has version byte %d, want 1", name, v)
		}
	}
	if got := query(db, cd); len(got) != 2 || got[0] != "I1" || got[1] != "I4" {
		t.Fatalf("CD codes over version 1 records = %q, want [I1 I4]", got)
	}
	if got := query(db, whole); len(got) != 2 {
		t.Fatalf("whole Items over version 1 records = %d, want 2", len(got))
	}
	doc := xmltree.MustParseString("i2",
		`<Item id="2"><Code>I2</Code><Name>n2</Name><Description>a fine movie</Description><Section>CD</Section></Item>`)
	if err := db.PutDocument("items", doc); err != nil {
		t.Fatal(err)
	}
	if v := version(db, "i2"); v != 0x82 {
		t.Fatalf("a put record has version byte %#x, want 0x82 (version 2, sealed)", v)
	}
	if v := version(db, "i1"); v != 1 {
		t.Fatalf("an untouched record has version byte %d, want 1", v)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := query(db, cd); len(got) != 3 || got[0] != "I1" || got[1] != "I2" || got[2] != "I4" {
		t.Fatalf("CD codes over mixed records after reopen = %q, want [I1 I2 I4]", got)
	}
}
