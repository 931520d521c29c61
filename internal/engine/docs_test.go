package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"partix/internal/storage"
	"partix/internal/xmltree"
)

// loadWide loads n small documents of one shape with varied sections and
// descriptions.
func loadWide(t testing.TB, db *DB, n int) {
	t.Helper()
	c := xmltree.NewCollection("wide")
	sections := []string{"CD", "DVD", "Book", "Toy", "Garden"}
	for i := 0; i < n; i++ {
		desc := "plain stock"
		if i%3 == 0 {
			desc = "good quality stock"
		}
		c.Add(xmltree.MustParseString(fmt.Sprintf("w%03d", i), fmt.Sprintf(
			`<Item id="%d"><Code>W%d</Code><Name>name%d</Name><Description>%s</Description><Section>%s</Section></Item>`,
			i, i, i, desc, sections[i%len(sections)])))
	}
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
}

// TestDocsCallbackErrorStops: an error returned by the evaluator callback
// mid-iteration stops the scan, surfaces to the caller, and leaves the
// engine usable.
func TestDocsCallbackErrorStops(t *testing.T) {
	db := testDB(t, Options{})
	loadWide(t, db, 30)
	wantErr := fmt.Errorf("stop early")
	seen := 0
	err := db.Docs("wide", nil, func(*xmltree.Document) error {
		seen++
		if seen == 3 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if seen != 3 {
		t.Fatalf("callback ran %d times, want 3", seen)
	}
	if _, err := db.Query(`count(collection("wide")/Item)`); err != nil {
		t.Fatal(err)
	}
}

// TestDocsAllocsPerCandidate: a Docs scan reads and decodes its
// candidates a chunk at a time, so its allocations grow per chunk, not per
// candidate — no per-candidate record buffer, decoder, slab or Document,
// and no channel, goroutine or reorder slot either. Scans over 0, 1, n and
// 10n candidates run with two Ps, so a scan that fanned candidates out to
// goroutines would show. The allocations the extra 9n candidates add must
// stay below a quarter per candidate, and a one-candidate scan (one huge
// document per fragment, as in the hybrid design) must cost no more than
// reading and decoding its record directly: one record buffer plus
// TestDecodeAllocs' ≤ 8. Meaningful without -race (verify.sh runs it so).
func TestDocsAllocsPerCandidate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 40
	scanAllocs := map[int]float64{}
	var direct float64
	for _, docs := range []int{0, 1, n, 10 * n} {
		db := testDB(t, Options{WALNoFsync: true})
		loadWide(t, db, docs)
		scan := func() error {
			return db.Docs("wide", nil, func(*xmltree.Document) error { return nil })
		}
		if err := scan(); err != nil { // warm up: builds the shared refs
			t.Fatal(err)
		}
		scanAllocs[docs] = mallocsPerRun(t, 50, scan)
		if docs != n {
			continue
		}
		snap, err := db.store.SnapshotCollection("wide")
		if err != nil {
			t.Fatal(err)
		}
		direct = mallocsPerRun(t, 5, func() error {
			for _, ref := range snap.Refs {
				raw, err := db.store.ReadRef(ref)
				if err != nil {
					return err
				}
				if _, err := storage.DecodeProjected(ref.Name, raw, nil); err != nil {
					return err
				}
			}
			return nil
		}) / n
		snap.Close()
	}
	perCandidate := (scanAllocs[10*n] - scanAllocs[n]) / (9 * n)
	one := scanAllocs[1] - scanAllocs[0]
	t.Logf("allocations: scan of %d docs %.1f, of %d docs %.1f; %.2f per candidate, %.2f for one candidate, %.2f per direct read+decode",
		n, scanAllocs[n], 10*n, scanAllocs[10*n], perCandidate, one, direct)
	if direct > 9.25 {
		t.Fatalf("reading and decoding one record takes %.2f allocations, want at most 1 + 8", direct)
	}
	if perCandidate > 0.25 {
		t.Fatalf("a Docs scan allocates %.2f per candidate, want at most 0.25 (a chunk's cost spread over its candidates)", perCandidate)
	}
	if one > direct+0.25 {
		t.Fatalf("a one-candidate Docs scan allocates %.2f for its candidate, reading and decoding alone %.2f", one, direct)
	}
}

// TestStoppedScanCountsDecoded: a scan fn stops early (an eager exists()
// that finds its witness) still reports what it decoded, and decodes no
// more than the first chunk: with the witness in the first candidate, one
// document of 400.
func TestStoppedScanCountsDecoded(t *testing.T) {
	db := testDB(t, Options{DisableIndexes: true}) // no index-only answer
	loadWide(t, db, 400)
	db.ResetStats()
	res, err := db.Query(`exists(collection("wide")/Item[Code = "W0"])`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != true {
		t.Fatalf("exists = %v, want true", res)
	}
	if st := db.Stats(); st.DocsDecoded != 1 {
		t.Fatalf("exists() with a witness in the first candidate decoded %d documents, want 1", st.DocsDecoded)
	}
}

// TestDocsCorruptRecordInChunk: a corrupt record fails the scan with the
// decoder's error under the document's name, even when it shares its chunk
// with sound records, and fn never sees it.
func TestDocsCorruptRecordInChunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	loadWide(t, db, 10)
	corruptRecord(t, db.Store(), path, "wide", "w002")
	var seen []string
	err = db.Docs("wide", nil, func(d *xmltree.Document) error {
		seen = append(seen, d.Name)
		return nil
	})
	if want := `storage: decode "w002": unsupported version 9`; err == nil || err.Error() != want {
		t.Fatalf("scan over a corrupt record: err = %v, want %s", err, want)
	}
	if slices.Contains(seen, "w002") {
		t.Fatalf("fn saw the corrupt document: %v", seen)
	}
}

// corruptRecord overwrites the version byte of a stored document's record
// in the store file at path with an unsupported version, 9. The record is
// a small one, a slot of a packed page: its first byte is at its ref's
// offset in that page.
func corruptRecord(t *testing.T, st *storage.Store, path, collection, name string) {
	t.Helper()
	snap, err := st.SnapshotCollection(collection)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	i := slices.IndexFunc(snap.Refs, func(r storage.DocRef) bool { return r.Name == name })
	if i < 0 {
		t.Fatalf("no document %q in %q", name, collection)
	}
	ref := snap.Refs[i]
	if ref.Off == 0 {
		t.Fatalf("record of %q is chained, not packed", name)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{9}, ref.Page*storage.PageSize+ref.Off); err != nil {
		t.Fatal(err)
	}
}

// mallocsPerRun reports the heap allocations of one call of f, averaged
// over runs calls on whatever GOMAXPROCS is set (testing.AllocsPerRun
// would pin it to 1).
func mallocsPerRun(t *testing.T, runs int, f func() error) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestFetchIsASnapshot: a fetch reads one snapshot. Writes that land
// mid-fetch — the last document deleted and the second replaced from
// inside the callback for the first — neither fail the fetch nor leak into
// it: it delivers the snapshot's four documents with their old bytes, and
// the next fetch sees the writes.
func TestFetchIsASnapshot(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	names := []string{"i1", "i2", "i3", "i4"}
	before := map[string][]byte{}
	for _, name := range names {
		raw, err := db.store.GetDocumentRaw("items", name)
		if err != nil {
			t.Fatal(err)
		}
		before[name] = raw
	}
	fetch := func(onFirst func() error) ([]string, map[string][]byte) {
		t.Helper()
		var got []string
		data := map[string][]byte{}
		err := db.Fetch("items", nil, "", func(name string, raw []byte) error {
			if len(got) == 0 && onFirst != nil {
				if err := onFirst(); err != nil {
					return err
				}
			}
			got = append(got, name)
			data[name] = raw
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, data
	}

	got, data := fetch(func() error {
		if err := db.DeleteDocument("items", "i4"); err != nil {
			return err
		}
		return db.PutDocument("items", xmltree.MustParseString("i2",
			`<Item id="2"><Code>I2</Code><Name>n2</Name><Description>now vinyl</Description><Section>Vinyl</Section></Item>`))
	})
	if !slices.Equal(got, names) {
		t.Fatalf("mid-fetch writes: fetched %v, want the snapshot's %v", got, names)
	}
	for _, name := range names {
		if !bytes.Equal(data[name], before[name]) {
			t.Fatalf("mid-fetch writes: %s arrived with bytes of another generation", name)
		}
	}

	got, data = fetch(nil)
	if want := names[:3]; !slices.Equal(got, want) {
		t.Fatalf("after the writes: fetched %v, want %v", got, want)
	}
	if bytes.Equal(data["i2"], before["i2"]) {
		t.Fatal("after the writes: i2 still has its replaced bytes")
	}
}
