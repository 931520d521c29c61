package engine

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func TestIndexSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening must load the snapshot — no document decodes happen.
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st := db2.Stats(); st.DocsDecoded != 0 {
		t.Fatalf("open decoded %d documents despite snapshot", st.DocsDecoded)
	}
	res, err := db2.Query(`for $i in collection("items")/Item where $i/Section = "DVD" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	if st := db2.Stats(); st.DocsPruned == 0 {
		t.Fatal("snapshot index did not prune")
	}
}

func TestIndexSnapshotConsistentAfterMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, db)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Mutate after the sync, then close (which snapshots again).
	if err := db.DeleteDocument("items", "i2"); err != nil {
		t.Fatal(err)
	}
	if err := db.PutDocument("items", xmltree.MustParseString("i9",
		`<Item id="9"><Code>I9</Code><Name>n9</Name><Description>brand new vinyl</Description><Section>Vinyl</Section></Item>`)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`for $i in collection("items")/Item where $i/Section = "Vinyl" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("new doc not indexed after reopen: %d", len(res))
	}
	res, err = db2.Query(`for $i in collection("items")/Item where $i/Section = "DVD" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("deleted doc still indexed: %d", len(res))
	}
}

// TestSnapshotRoundTripAfterDelete: a delete between Sync and Close must
// be reflected by the snapshot the reopen loads — the deleted document's
// postings are gone, so queries for it prune to nothing without decoding.
func TestSnapshotRoundTripAfterDelete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, db)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument("items", "i2"); err != nil { // the only DVD
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.ResetStats()
	res, err := db2.Query(`for $i in collection("items")/Item where $i/Section = "DVD" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("deleted doc resurrected: %d results", len(res))
	}
	if st := db2.Stats(); st.DocsDecoded != 0 {
		t.Fatalf("decoded %d docs for an empty candidate set", st.DocsDecoded)
	}
	res, err = db2.Query(`collection("items")/Item/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d docs after reopen, want 3", len(res))
	}
}

// oldFormatCases are stores whose index record is not a usable v4 record:
// only a v1-key record, only a v2-key record (nothing reads those keys any
// more, so their payload is arbitrary), only a v3-key record as the engine
// that kept element postings wrote it, with or without its path half (the
// latter as that engine wrote it after loading a pre-v3 record), a v4
// record whose path half is missing, and no record at all, as a store left
// by a crash before its first Close. The v3 and v4 records are doctored
// further — i3, the only Book item, is missing from every token posting —
// so loading one instead of rebuilding would show.
var oldFormatCases = []struct {
	name string
	meta func(t *testing.T, live indexSnapshotV4) map[string][]byte
}{
	{"v1 record only", func(*testing.T, indexSnapshotV4) map[string][]byte {
		return map[string][]byte{indexMetaKeyV1: []byte("an old v1 record"), indexMetaKeyV4: nil}
	}},
	{"v2 record only", func(*testing.T, indexSnapshotV4) map[string][]byte {
		return map[string][]byte{indexMetaKeyV2: []byte("an old v2 record"), indexMetaKeyV4: nil}
	}},
	{"v3 record only", func(t *testing.T, live indexSnapshotV4) map[string][]byte {
		return map[string][]byte{indexMetaKeyV3: v3Record(t, withoutI3(live)), indexMetaKeyV4: nil}
	}},
	{"v3 record without paths", func(t *testing.T, live indexSnapshotV4) map[string][]byte {
		return map[string][]byte{indexMetaKeyV3: v3Record(t, withoutPaths(withoutI3(live))), indexMetaKeyV4: nil}
	}},
	{"v4 record without paths", func(t *testing.T, live indexSnapshotV4) map[string][]byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(map[string]indexSnapshotV4{"items": withoutPaths(withoutI3(live))}); err != nil {
			t.Fatal(err)
		}
		return map[string][]byte{indexMetaKeyV4: buf.Bytes()}
	}},
	{"no record", func(*testing.T, indexSnapshotV4) map[string][]byte {
		return map[string][]byte{indexMetaKeyV4: nil}
	}},
}

// withoutI3 drops i3 from every token posting of s.
func withoutI3(s indexSnapshotV4) indexSnapshotV4 {
	i3 := uint32(slices.Index(s.Docs, "i3"))
	for tok, list := range s.Postings {
		s.Postings[tok] = slices.DeleteFunc(list, func(id uint32) bool { return id == i3 })
	}
	return s
}

// withoutPaths empties the path half of s.
func withoutPaths(s indexSnapshotV4) indexSnapshotV4 {
	s.PathsBuilt = false
	s.PathDocs, s.PathCounts, s.Values, s.Overflow = nil, nil, nil, nil
	return s
}

// indexSnapshotV3 is the record engines that kept element postings wrote
// under the v3 key: the v4 record plus Elements, element name → docIDs.
type indexSnapshotV3 struct {
	Docs       []string
	Postings   map[string][]uint32
	Elements   map[string][]uint32
	PathsBuilt bool
	PathDocs   map[string][]uint32
	PathCounts map[string][]uint32
	Values     map[string][]valueSnapV4
	Overflow   map[string][]uint32
}

// v3Record encodes s as the items collection's v3 record, its element
// postings derived from its path keys (an element's name is the last
// component of each key naming it).
func v3Record(t *testing.T, s indexSnapshotV4) []byte {
	t.Helper()
	elements := map[string][]uint32{}
	for key, docs := range s.PathDocs {
		if name := key[strings.LastIndex(key, "/")+1:]; !strings.HasPrefix(name, "@") {
			elements[name] = append(elements[name], docs...)
		}
	}
	for name, docs := range elements {
		slices.Sort(docs)
		elements[name] = slices.Compact(docs)
	}
	v3 := indexSnapshotV3{
		Docs: s.Docs, Postings: s.Postings, Elements: elements, PathsBuilt: s.PathsBuilt,
		PathDocs: s.PathDocs, PathCounts: s.PathCounts, Values: s.Values, Overflow: s.Overflow,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(map[string]indexSnapshotV3{"items": v3}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oldFormatStore writes the items collection to a new store, then replaces
// its index records with meta's, and returns the store's path.
func oldFormatStore(t *testing.T, meta func(*testing.T, indexSnapshotV4) map[string][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "old.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, db)
	live := db.indexFor("items").snapshot()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for key, data := range meta(t, live) {
		if err := st.PutMeta(key, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// queryStrings runs q and returns its items as strings.
func queryStrings(t *testing.T, db *DB, q string) []string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, it := range res {
		out = append(out, xquery.ItemString(it))
	}
	return out
}

// TestOldSnapshotFormatsRebuild: each of oldFormatCases opens by the
// rebuild scan. It must answer the range query and an index-only count()
// correctly from its first query, find i3, then write a v4 record at Close
// and drop the old keys.
func TestOldSnapshotFormatsRebuild(t *testing.T) {
	for _, tc := range oldFormatCases {
		t.Run(tc.name, func(t *testing.T) {
			path := oldFormatStore(t, tc.meta)

			db2, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			db2.ResetStats()
			if got := queryStrings(t, db2, `for $i in collection("items")/Item where $i/@id < 2 return $i/Code`); !slices.Equal(got, []string{"I1"}) {
				t.Fatalf("range query = %v, want [I1]", got)
			}
			if st := db2.Stats(); st.DocsDecoded != 1 {
				t.Fatalf("range query decoded %d docs, want 1", st.DocsDecoded)
			}
			if got := queryStrings(t, db2, `count(collection("items")/Item)`); !slices.Equal(got, []string{"4"}) {
				t.Fatalf("count = %v, want [4]", got)
			}
			if st := db2.Stats(); st.IndexOnlyHits != 1 || st.DocsDecoded != 1 {
				t.Fatalf("count not answered index-only: %+v", st)
			}
			if got := queryStrings(t, db2, `for $i in collection("items")/Item where $i/Section = "Book" return $i/Code`); !slices.Equal(got, []string{"I3"}) {
				t.Fatalf("Book query = %v, want [I3]: the old record was loaded, not rebuilt", got)
			}
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}

			st, err := storage.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for _, key := range []string{indexMetaKeyV1, indexMetaKeyV2, indexMetaKeyV3} {
				if _, ok, _ := st.GetMeta(key); ok {
					t.Fatalf("%s record survived the close", key)
				}
			}
			data, ok, err := st.GetMeta(indexMetaKeyV4)
			if err != nil || !ok {
				t.Fatalf("no v4 record written on close: %v", err)
			}
			var snap map[string]indexSnapshotV4
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			if s := snap["items"]; !s.PathsBuilt || len(s.PathDocs) == 0 {
				t.Fatalf("the v4 record written on close has no paths (PathsBuilt=%v, %d paths)", s.PathsBuilt, len(s.PathDocs))
			}
		})
	}
}

// TestOldFormatUpgradeSurvivesReopen: mutations made on an index rebuilt
// from one of oldFormatCases, before any query, reach the v4 record written
// at Close; that record is one the loader accepts, and the store reopened
// from it answers index-only count() with no decodes and prunes range
// queries to their candidates.
func TestOldFormatUpgradeSurvivesReopen(t *testing.T) {
	for _, tc := range oldFormatCases {
		t.Run(tc.name, func(t *testing.T) {
			path := oldFormatStore(t, tc.meta)

			db, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.DeleteDocument("items", "i1"); err != nil {
				t.Fatal(err)
			}
			if err := db.PutDocument("items", xmltree.MustParseString("i9",
				`<Item id="9"><Code>I9</Code><Name>n9</Name><Description>late</Description><Section>Vinyl</Section></Item>`)); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			st, err := storage.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			data, ok, err := st.GetMeta(indexMetaKeyV4)
			if err != nil || !ok {
				t.Fatalf("no v4 record written on close: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			var snap map[string]indexSnapshotV4
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			s := snap["items"]
			if !slices.Contains(s.Docs, "i9") || slices.Contains(s.Docs, "i1") {
				t.Fatalf("v4 record docs = %q, want i9 and not i1", s.Docs)
			}
			if _, ok := indexFromSnapshot(s); !ok {
				t.Fatal("the loader rejects the v4 record written on close")
			}

			db2, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			db2.ResetStats()
			if got := queryStrings(t, db2, `count(collection("items")/Item)`); !slices.Equal(got, []string{"4"}) { // i2..i4 plus i9
				t.Fatalf("count = %v, want [4]", got)
			}
			if st := db2.Stats(); st.IndexOnlyHits != 1 || st.DocsDecoded != 0 {
				t.Fatalf("count after reopen not index-only: %+v", st)
			}
			if got := queryStrings(t, db2, `for $i in collection("items")/Item where $i/@id >= 9 return $i/Code`); !slices.Equal(got, []string{"I9"}) {
				t.Fatalf("range query = %v, want [I9]", got)
			}
			if got := queryStrings(t, db2, `for $i in collection("items")/Item where $i/@id < 2 return $i/Code`); len(got) != 0 {
				t.Fatalf("deleted doc resurrected: %v", got)
			}
			if st := db2.Stats(); st.DocsDecoded != 1 {
				t.Fatalf("range queries decoded %d docs, want 1", st.DocsDecoded)
			}
		})
	}
}

func TestCorruptSnapshotFallsBackToRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the snapshot records (every format key) through the raw store.
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{indexMetaKeyV1, indexMetaKeyV2, indexMetaKeyV3, indexMetaKeyV4} {
		if err := st.PutMeta(key, []byte("not gob at all")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Rebuild happened (documents decoded) and queries still prune.
	db2.ResetStats()
	res, err := db2.Query(`for $i in collection("items")/Item where $i/Section = "DVD" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results after rebuild = %d", len(res))
	}
	if stt := db2.Stats(); stt.DocsPruned == 0 {
		t.Fatal("rebuilt index does not prune")
	}
}

func TestSnapshotStaleWhenCollectionMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Add a new collection behind the engine's back (raw store), so the
	// snapshot no longer covers everything.
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutDocument("extra", xmltree.MustParseString("x", "<X><Y>hello</Y></X>")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`count(collection("extra")/X)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].(float64) != 1 {
		t.Fatalf("extra collection not indexed: %v", res)
	}
}

func TestStorageMetaAPI(t *testing.T) {
	st, err := storage.Open(filepath.Join(t.TempDir(), "m.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok, err := st.GetMeta("missing"); ok || err != nil {
		t.Fatalf("missing meta: ok=%v err=%v", ok, err)
	}
	if err := st.PutMeta("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := st.GetMeta("k")
	if err != nil || !ok || string(data) != "v1" {
		t.Fatalf("get = %q %v %v", data, ok, err)
	}
	if err := st.PutMeta("k", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	data, _, _ = st.GetMeta("k")
	if string(data) != "replaced" {
		t.Fatalf("replace failed: %q", data)
	}
	if err := st.PutMeta("k", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.GetMeta("k"); ok {
		t.Fatal("empty put did not delete")
	}
}
