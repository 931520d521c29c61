package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"partix/internal/storage"
	"partix/internal/toxgene"
	"partix/internal/xmltree"
)

// indexByName is an index's content with every docID resolved to its
// document's name, so two indexes that gave the same documents different
// IDs compare equal.
type indexByName struct {
	docs     []string
	postings map[string][]string            // token → names
	paths    map[string]map[string]uint32   // path key → name → node count
	values   map[string]map[string][]string // path key → value → names
	overflow map[string][]string            // path key → names
}

// byName resolves ix. It fails when a list is not strictly sorted by docID
// or names a recycled slot: both are invariants candidate selection relies
// on.
func byName(t *testing.T, ix *docIndex) indexByName {
	t.Helper()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	names := func(what string, ids []docID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("%s: docIDs not strictly sorted: %v", what, ids)
			}
			if out[i] = ix.names[id]; out[i] == "" {
				t.Fatalf("%s: docID %d is a recycled slot", what, id)
			}
		}
		slices.Sort(out)
		return out
	}
	r := indexByName{
		docs:     sortedKeys(ix.ids),
		postings: map[string][]string{},
		paths:    map[string]map[string]uint32{},
		values:   map[string]map[string][]string{},
		overflow: map[string][]string{},
	}
	for tok, ids := range ix.postings {
		r.postings[tok] = names("token "+tok, ids)
	}
	for key, p := range ix.paths {
		names("path "+key, p.ids)
		counts := map[string]uint32{}
		for i, id := range p.ids {
			counts[ix.names[id]] = p.counts[i]
		}
		r.paths[key] = counts
	}
	for key, vl := range ix.values {
		vals := map[string][]string{}
		for _, e := range vl.entries {
			vals[e.raw] = names("value "+e.raw+" at "+key, e.ids)
		}
		r.values[key] = vals
		if len(vl.overflow) > 0 {
			r.overflow[key] = names("overflow at "+key, vl.overflow)
		}
	}
	return r
}

// mapDiff describes the first key, in sorted order, at which a and b
// differ; "" when they are equal.
func mapDiff[V any](what string, a, b map[string]V) string {
	keys := sortedKeys(a)
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		va, inA := a[k]
		vb, inB := b[k]
		if inA != inB || !reflect.DeepEqual(va, vb) {
			return fmt.Sprintf("%s %q: %v (present %v), fresh build %v (present %v)", what, k, va, inA, vb, inB)
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// checkFreshBuild fails unless the collection's index equals one
// bulk-built from the documents its store holds, decoded from their
// records, and unless each of those documents contributes what the
// version the test put contributed (decode fidelity: prepDoc of a
// document equals prepDoc of its decoded record, the property that lets a
// delete or replace undo a document from its stored record). put maps a
// name to the document last put under it, nil for none.
func checkFreshBuild(t *testing.T, db *DB, collection string, put map[string]*xmltree.Document, when string) {
	t.Helper()
	names, err := db.Store().Documents(collection)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*xmltree.Document, len(names))
	for i, name := range names {
		if docs[i], err = db.Store().GetDocument(collection, name); err != nil {
			t.Fatal(err)
		}
		if d := put[name]; d != nil {
			if diff := prepDiff(prepDoc(d), prepDoc(docs[i])); diff != "" {
				t.Fatalf("%s: %s: prepDoc of the put document and of its record differ: %s", when, name, diff)
			}
		}
	}
	fresh := newDocIndex()
	fresh.bulkAdd(docs, nil)
	got, want := byName(t, db.indexFor(collection)), byName(t, fresh)
	if !slices.Equal(got.docs, want.docs) {
		t.Fatalf("%s: the index holds %q, the store %q", when, got.docs, want.docs)
	}
	for _, diff := range []string{
		mapDiff("token", got.postings, want.postings),
		mapDiff("path", got.paths, want.paths),
		mapDiff("values at", got.values, want.values),
		mapDiff("overflow at", got.overflow, want.overflow),
	} {
		if diff != "" {
			t.Fatalf("%s: index differs from a fresh build: %s", when, diff)
		}
	}
}

// prepDiff describes how two documents' contributions differ; "" when
// they are the same.
func prepDiff(a, b docPrep) string {
	set := func(s []string) map[string]bool {
		m := map[string]bool{}
		for _, v := range s {
			m[v] = true
		}
		return m
	}
	sorted := func(m map[string][]string) map[string][]string {
		out := map[string][]string{}
		for k, v := range m {
			out[k] = slices.Clone(v)
			slices.Sort(out[k])
		}
		return out
	}
	for _, diff := range []string{
		mapDiff("token", set(a.tokens), set(b.tokens)),
		mapDiff("path count", a.contrib.counts, b.contrib.counts),
		mapDiff("values at", sorted(a.contrib.values), sorted(b.contrib.values)),
		mapDiff("overflow at", a.contrib.overflow, b.contrib.overflow),
	} {
		if diff != "" {
			return diff
		}
	}
	return ""
}

// mutationDoc draws a deciderDoc with a Description holding character
// data the parser reassembles: entity and character references, CDATA,
// comments and processing instructions between pieces of one text, and
// values just under, at and just over valueCap.
func mutationDoc(rng *rand.Rand, name string) *xmltree.Document {
	xml := xmltree.SerializeString(deciderDoc(rng, name))
	end := strings.LastIndex(xml, "</")
	texts := []string{
		`good &amp; cheap`,
		`a<!-- note -->b <![CDATA[<raw> & tokens]]> c`,
		`caf&#233; cr&#xE8;me <?pi data?>br&#251;l&#233;e`,
		fmt.Sprintf("%0*d", valueCap, rng.Intn(10)),
		fmt.Sprintf("%0*d", valueCap+1, rng.Intn(10)),
		`  padded   words  `,
	}
	return xmltree.MustParseString(name, xml[:end]+`<Description>`+texts[rng.Intn(len(texts))]+`</Description>`+xml[end:])
}

// TestIndexEqualsFreshBuildAfterMutations: random puts, replaces, deletes,
// re-puts of deleted names (recycled docIDs) and loads over names already
// stored, with reopens from a saved index snapshot and by a rebuild scan
// in between, leave the index equal, document by document, to one built
// fresh from the surviving stored documents.
func TestIndexEqualsFreshBuildAfterMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.db")
	db, err := Open(path, Options{WALNoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	reopen := func(snapshot bool) {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if !snapshot {
			st, err := storage.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutMeta(indexMetaKeyV4, nil); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if db, err = Open(path, Options{WALNoFsync: true}); err != nil {
			t.Fatal(err)
		}
	}

	const pool = 24
	rng := rand.New(rand.NewSource(5))
	put := map[string]*xmltree.Document{}
	name := func() string { return fmt.Sprintf("d%02d", rng.Intn(pool)) }
	if err := db.Store().CreateCollection("items"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		for op := 0; op < 30; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // a put: new, a replace, or a re-put of a deleted name
				d := mutationDoc(rng, name())
				if err := db.PutDocument("items", d); err != nil {
					t.Fatal(err)
				}
				put[d.Name] = d
			case r < 8:
				n := name()
				err := db.DeleteDocument("items", n)
				if (err == nil) != (put[n] != nil) {
					t.Fatalf("delete %s: err = %v with the document stored: %v", n, err, put[n] != nil)
				}
				delete(put, n)
			default: // a load over stored names, a name maybe twice
				c := xmltree.NewCollection("items")
				for k := 2 + rng.Intn(5); k > 0; k-- {
					c.Add(mutationDoc(rng, name()))
				}
				if err := db.LoadCollection(c); err != nil {
					t.Fatal(err)
				}
				for _, d := range c.Docs {
					put[d.Name] = d
				}
			}
		}
		checkFreshBuild(t, db, "items", put, fmt.Sprintf("round %d", round))
		if round%4 == 1 || round%4 == 3 {
			reopen(round%4 == 1)
			checkFreshBuild(t, db, "items", put, fmt.Sprintf("round %d, reopened", round))
		}
	}
}

// TestCorruptRecordDeletesAndReplaces: a document whose stored record no
// longer decodes can still be deleted, replaced by a put and replaced by a
// load. The index then sweeps its lists for the document instead of
// undoing a decoded record, and still equals a fresh build.
func TestCorruptRecordDeletesAndReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	loadWide(t, db, 10)
	item := func(name, section string) *xmltree.Document {
		return xmltree.MustParseString(name, `<Item id="99"><Code>X</Code><Description>fresh words</Description><Section>`+section+`</Section></Item>`)
	}

	corruptRecord(t, db.Store(), path, "wide", "w002")
	if _, err := db.Store().GetDocument("wide", "w002"); err == nil {
		t.Fatal("the corrupted record still decodes")
	}
	if err := db.DeleteDocument("wide", "w002"); err != nil {
		t.Fatalf("delete of a corrupt document: %v", err)
	}
	checkFreshBuild(t, db, "wide", nil, "after the delete")
	if err := db.PutDocument("wide", item("w002", "Vinyl")); err != nil {
		t.Fatal(err)
	}
	checkFreshBuild(t, db, "wide", nil, "after the re-put")

	corruptRecord(t, db.Store(), path, "wide", "w005")
	if err := db.PutDocument("wide", item("w005", "Radio")); err != nil {
		t.Fatalf("put over a corrupt document: %v", err)
	}
	checkFreshBuild(t, db, "wide", nil, "after the put over it")

	corruptRecord(t, db.Store(), path, "wide", "w007")
	c := xmltree.NewCollection("wide")
	c.Add(item("w007", "Tape"))
	c.Add(item("w010", "Tape"))
	if err := db.LoadCollection(c); err != nil {
		t.Fatalf("load over a corrupt document: %v", err)
	}
	checkFreshBuild(t, db, "wide", nil, "after the load over it")
}

// mutationBenchDB opens a node holding 4,500 small Items (ItemsSHor, seed
// 1), one point-workload fragment's worth, and returns them with a second
// version of each: the same names, the content of seed 2.
func mutationBenchDB(b *testing.B) (db *DB, docs, alt []*xmltree.Document) {
	b.Helper()
	db, err := Open(filepath.Join(b.TempDir(), "node.db"), Options{WALNoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 4500, Seed: 1})
	if err := db.LoadCollection(items); err != nil {
		b.Fatal(err)
	}
	alt = toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 4500, Seed: 2}).Docs
	for i, d := range alt {
		if d.Name != items.Docs[i].Name {
			b.Fatalf("seed 2 names Item %d %q, seed 1 %q", i, d.Name, items.Docs[i].Name)
		}
	}
	return db, items.Docs, alt
}

// BenchmarkDeleteDocument times deleting one stored Item of 4,500; each
// is put back untimed.
func BenchmarkDeleteDocument(b *testing.B) {
	db, docs, _ := mutationBenchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := docs[i%len(docs)]
		if err := db.DeleteDocument("items", d.Name); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.PutDocument("items", d); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkReplaceDocument times putting a new version of one stored Item
// of 4,500, the versions alternating between two contents.
func BenchmarkReplaceDocument(b *testing.B) {
	db, docs, alt := mutationBenchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := alt[i%len(alt)]
		if i/len(alt)%2 == 1 {
			d = docs[i%len(docs)]
		}
		if err := db.PutDocument("items", d); err != nil {
			b.Fatal(err)
		}
	}
}
