package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partix/internal/obs"
	"partix/internal/toxgene"
	"partix/internal/xmltree"
)

// smallXML and largeXML build documents whose records are packed and
// chained respectively.
func smallXML(i int) string {
	return fmt.Sprintf("<Item><Code>I%d</Code><Section>CD</Section></Item>", i)
}

func largeXML(i int) string {
	return fmt.Sprintf("<Item><Code>I%d</Code><Description>%s</Description></Item>", i, strings.Repeat("long text ", 400))
}

// refOf returns the snapshot ref of one document.
func refOf(t *testing.T, s *Store, collection, name string) DocRef {
	t.Helper()
	snap, err := s.SnapshotCollection(collection)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, r := range snap.Refs {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no document %q in %q", name, collection)
	return DocRef{}
}

// checkModel asserts the store holds exactly the documents of model
// (collection → name → XML), each decoding to its XML.
func checkModel(t *testing.T, s *Store, model map[string]map[string]string) {
	t.Helper()
	for c, docs := range model {
		names, err := s.Documents(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != len(docs) {
			t.Fatalf("%s holds %d documents, want %d", c, len(names), len(docs))
		}
		for name, xml := range docs {
			got, err := s.GetDocument(c, name)
			if err != nil {
				t.Fatalf("%s/%s: %v", c, name, err)
			}
			if want := doc(name, xml); !xmltree.EqualDocuments(want, got) {
				t.Fatalf("%s/%s differs: %s", c, name, xmltree.Diff(want.Root, got.Root))
			}
		}
	}
}

// auditPages asserts that every page of the store is reachable from the
// catalog or on the free list, never both and never neither: what holds
// once every pin has closed and a checkpoint has run. A packed page may be
// reached from several entries, a chained page from one.
func auditPages(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) != 0 {
		t.Fatalf("%d pending-free entries after a checkpoint with no pin", len(s.pending))
	}
	const (
		chained = 1 + iota
		packed
		free
	)
	kinds := []string{"unmarked", "chained", "packed", "free"}
	count := s.pager.pageCount.Load()
	state := make([]int, count)
	mark := func(id int64, what int) {
		t.Helper()
		if id < 1 || id >= count {
			t.Fatalf("page %d outside store (pages: %d)", id, count)
		}
		if state[id] != 0 && !(what == packed && state[id] == packed) {
			t.Fatalf("page %d is both %s and %s", id, kinds[state[id]], kinds[what])
		}
		state[id] = what
	}
	markEntry := func(e docEntry) {
		t.Helper()
		if e.Off != 0 {
			mark(e.Page, packed)
			return
		}
		pages, err := s.pager.chainPages(e.Page)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range pages {
			mark(id, chained)
		}
	}
	for _, docs := range s.cat.Collections {
		for _, e := range docs {
			markEntry(e)
		}
	}
	for _, e := range s.cat.Meta {
		markEntry(e)
	}
	markEntry(docEntry{Page: s.pager.catalog})
	buf := make([]byte, PageSize)
	for id, n := s.pager.freeHead, int64(0); id != 0; n++ {
		if n == count {
			t.Fatal("free list cycles")
		}
		mark(id, free)
		next, _, err := s.pager.readPageHeaderInto(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		id = next
	}
	for id := int64(1); id < count; id++ {
		if state[id] == 0 {
			t.Fatalf("page %d is neither reachable nor free", id)
		}
	}
}

// Small records share pages; large ones keep chains of their own.
func TestSmallRecordsArePacked(t *testing.T) {
	s, _ := tempStore(t)
	for i := 0; i < 20; i++ {
		if err := s.PutDocument("items", doc(fmt.Sprintf("d%02d", i), smallXML(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutDocument("items", doc("big", largeXML(0))); err != nil {
		t.Fatal(err)
	}
	snap, err := s.SnapshotCollection("items")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	pages := map[int64]bool{}
	for _, r := range snap.Refs {
		if r.Name == "big" {
			if r.Off != 0 || r.Size <= packMax {
				t.Fatalf("large record %+v is packed", r)
			}
			continue
		}
		if r.Off < pageHeaderSize || r.Off+r.Size > PageSize {
			t.Fatalf("small record %+v is not a packed slot", r)
		}
		pages[r.Page] = true
	}
	if len(pages) != 1 {
		t.Fatalf("20 small records take %d pages, want 1", len(pages))
	}
	// A checkpoint retires the open page: the next record opens another.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDocument("items", doc("after", smallXML(99))); err != nil {
		t.Fatal(err)
	}
	if r := refOf(t, s, "items", "after"); pages[r.Page] || r.Off != pageHeaderSize {
		t.Fatalf("record put after a checkpoint went to %+v, not a fresh page", r)
	}
	checkModel(t, s, map[string]map[string]string{"items": func() map[string]string {
		m := map[string]string{"big": largeXML(0), "after": smallXML(99)}
		for i := 0; i < 20; i++ {
			m[fmt.Sprintf("d%02d", i)] = smallXML(i)
		}
		return m
	}()})
}

// ReadRefs reads refs whose records sit back to back in one packed page
// with one read of exactly their bytes, and each record is its ref's Size
// bytes of the result.
func TestReadRefsReadsAdjacentSlotsOnce(t *testing.T) {
	s, _ := tempStore(t)
	for i := 0; i < 5; i++ {
		if err := s.PutDocument("items", doc(fmt.Sprintf("d%d", i), smallXML(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.SnapshotCollection("items")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var want []byte
	for _, r := range snap.Refs {
		raw, err := s.ReadRef(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw...)
	}
	for _, tc := range []struct {
		refs  []DocRef
		reads int64
	}{
		{snap.Refs, 1},
		{[]DocRef{snap.Refs[0], snap.Refs[2]}, 2},
	} {
		pages, read := obs.StoragePagesRead.Value(), obs.StorageBytesRead.Value()
		recs := make([][]byte, len(tc.refs))
		if _, err := s.ReadRefs(nil, tc.refs, recs); err != nil {
			t.Fatal(err)
		}
		got := bytes.Join(recs, nil)
		if d := obs.StoragePagesRead.Value() - pages; d != tc.reads {
			t.Fatalf("%d refs took %d reads, want %d", len(tc.refs), d, tc.reads)
		}
		if d := obs.StorageBytesRead.Value() - read; d != int64(len(got)) {
			t.Fatalf("read %d bytes for %d bytes of records", d, len(got))
		}
		if len(tc.refs) == len(snap.Refs) && !bytes.Equal(got, want) {
			t.Fatal("ReadRefs of the run differs from the records read one by one")
		}
	}
}

// A chain link that points back at its own page stops every walk with an
// error: a read with the size known or not, a delete, and recovery's
// free-list rebuild.
func TestChainWalkStopsOnCycle(t *testing.T) {
	s, _ := tempStore(t)
	id, err := s.pager.allocPage()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(buf, uint64(id))
	binary.LittleEndian.PutUint16(buf[8:], 100)
	if err := s.pager.writePage(id, buf); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{300, 0} {
		if _, err := s.pager.readRecord(id, 0, size); err == nil {
			t.Fatalf("read of a self-linked chain (size %d) succeeded", size)
		}
	}
	if _, err := s.pager.chainPages(id); err == nil {
		t.Fatal("walk of a self-linked chain succeeded")
	}
	if _, err := s.ReadRefs(make([]byte, 0, 2*PageSize), []DocRef{{Name: "d", Page: id, Size: 300}}, make([][]byte, 1)); err == nil {
		t.Fatal("ReadRefs of a self-linked chain succeeded")
	}
	s.mu.Lock()
	s.cat.Collections["c"] = map[string]docEntry{"d": {Page: id, Size: 300}}
	err = s.rebuildFreeList()
	s.mu.Unlock()
	if err == nil {
		t.Fatal("free-list rebuild over a self-linked chain succeeded")
	}
	if err := s.DeleteDocument("c", "d"); err != nil {
		t.Fatal(err)
	}
}

// Hostile catalog entries, an offset inside the page header, a slot that
// runs past its page, a page beyond the store, a chain size no chain of
// the store holds, fail with an error and read nothing, through a snapshot
// ref and through the catalog, before and after a reopen.
func TestHostilePackedEntriesFail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutDocument("items", doc("ok", smallXML(1))); err != nil {
		t.Fatal(err)
	}
	good := refOf(t, s, "items", "ok")
	count := s.pager.pageCount.Load()
	hostile := []docEntry{
		{Page: good.Page, Off: 4, Size: good.Size},
		{Page: good.Page, Off: PageSize - 10, Size: 20},
		{Page: good.Page, Off: good.Off, Size: PageSize},
		{Page: good.Page, Off: good.Off, Size: -1},
		{Page: good.Page, Off: good.Off, Size: 1 << 62},
		{Page: count + 5, Off: pageHeaderSize, Size: 20},
		{Page: 0, Off: pageHeaderSize, Size: 20},
		{Page: good.Page, Size: -1},      // a chain of negative size
		{Page: good.Page, Size: 1 << 62}, // a chain larger than the store
	}
	check := func(s *Store) {
		t.Helper()
		for i, e := range hostile {
			name := fmt.Sprintf("h%d", i)
			pages, read := obs.StoragePagesRead.Value(), obs.StorageBytesRead.Value()
			ref := DocRef{Name: name, Page: e.Page, Off: e.Off, Size: e.Size}
			if _, err := s.ReadRef(ref); err == nil {
				t.Fatalf("ReadRef of %+v succeeded", e)
			}
			if _, err := s.ReadRefs(nil, []DocRef{good, ref}, make([][]byte, 2)); err == nil {
				t.Fatalf("ReadRefs of %+v succeeded", e)
			}
			if _, err := s.GetDocumentRaw("items", name); err == nil {
				t.Fatalf("read of cataloged %+v succeeded", e)
			}
			// ReadRefs read the good record, and nothing else was read.
			if dp, db := obs.StoragePagesRead.Value()-pages, obs.StorageBytesRead.Value()-read; dp != 1 || db != good.Size {
				t.Fatalf("reads of %+v moved %d pages, %d bytes", e, dp, db)
			}
		}
	}
	s.mu.Lock()
	for i, e := range hostile {
		s.cat.Collections["items"][fmt.Sprintf("h%d", i)] = e
	}
	s.mu.Unlock()
	check(s)
	// A packed page walked as a chain fails as corrupt.
	if _, err := s.ReadRef(DocRef{Name: "ok", Page: good.Page, Size: good.Size}); err == nil {
		t.Fatal("packed page read as a chain")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
	// Deleting a hostile entry frees nothing it does not own.
	for i := range hostile {
		if err := s.DeleteDocument("items", fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	checkModel(t, s, map[string]map[string]string{"items": {"ok": smallXML(1)}})
	auditPages(t, s)
}

// Packed appends committed after the last checkpoint come back from the
// log after a crash, the replaced and deleted ones included.
func TestPackedAppendsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	model := map[string]string{}
	put := func(name, xml string) {
		t.Helper()
		if err := s.PutDocument("items", doc(name, xml)); err != nil {
			t.Fatal(err)
		}
		model[name] = xml
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("base%d", i), smallXML(i))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // several packed pages' worth
		put(fmt.Sprintf("d%02d", i), smallXML(100+i))
	}
	put("base3", smallXML(1003))
	put("d07", largeXML(7))
	if err := s.DeleteDocument("items", "base5"); err != nil {
		t.Fatal(err)
	}
	delete(model, "base5")

	crash := filepath.Join(dir, "crash.db")
	copyCrashImage(t, path, crash)
	s2, err := Open(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredMutations() == 0 {
		t.Fatal("expected WAL replay, got a clean open")
	}
	checkModel(t, s2, map[string]map[string]string{"items": model})
	auditPages(t, s2)
}

// A crash that tore a packed append, leaving garbage in its slot of a page
// that also holds checkpointed records, loses nothing: the neighbours
// decode with a valid checksum, and the torn record comes back from the
// log.
func TestTornPackedAppendKeepsNeighbours(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	model := map[string]string{"a": smallXML(1), "b": smallXML(2), "c": smallXML(3)}
	for _, name := range []string{"a", "b"} {
		if err := s.PutDocument("items", doc(name, model[name])); err != nil {
			t.Fatal(err)
		}
	}
	// c's slot is reserved in a and b's page before the checkpoint that
	// retires it, and committed after it.
	st, err := s.StageDocument("items", doc("c", model["c"]))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	tok, err := s.CommitStaged(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(tok); err != nil {
		t.Fatal(err)
	}
	a := refOf(t, s, "items", "a")
	if st.pages[0] != a.Page || st.off != a.Off+a.Size+refOf(t, s, "items", "b").Size {
		t.Fatalf("c's slot %d@%d does not follow a and b in page %d", st.off, st.pages[0], a.Page)
	}

	crash := filepath.Join(dir, "crash.db")
	copyCrashImage(t, path, crash)
	f, err := os.OpenFile(crash, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xEE}, len(st.data)), st.pages[0]*PageSize+st.off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredMutations() != 1 {
		t.Fatalf("replayed %d records, want c's put", s2.RecoveredMutations())
	}
	for _, name := range []string{"a", "b"} {
		ref := refOf(t, s2, "items", name)
		if ref.Page != a.Page {
			t.Fatalf("%s moved from page %d to %d", name, a.Page, ref.Page)
		}
		raw, err := s2.ReadRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeDocument(name, raw); err != nil {
			t.Fatalf("neighbour %s of the torn slot: %v", name, err)
		}
	}
	if ref := refOf(t, s2, "items", "c"); ref.Page == st.pages[0] && ref.Off == st.off {
		t.Fatal("c still points at its torn slot")
	}
	checkModel(t, s2, map[string]map[string]string{"items": model})
	auditPages(t, s2)
}

// A pinned snapshot still reads a replaced packed record after every
// other slot of its page has died and checkpoints have run, whether the
// page was retired before its slots died or was still the open page: the
// page drains only once the pin closes.
func TestPinnedSnapshotKeepsDeadPackedPage(t *testing.T) {
	for _, retired := range []bool{true, false} {
		t.Run(fmt.Sprintf("retired=%v", retired), func(t *testing.T) {
			s, _ := tempStore(t)
			for _, name := range []string{"a", "b"} {
				if err := s.PutDocument("items", doc(name, "<a><b>old-"+name+"</b></a>")); err != nil {
					t.Fatal(err)
				}
			}
			if retired {
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := s.SnapshotCollection("items")
			if err != nil {
				t.Fatal(err)
			}
			// A chained replacement and a delete kill both slots.
			if err := s.PutDocument("items", doc("a", largeXML(0))); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteDocument("items", "b"); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			// Writes after the checkpoint take pages from the free list;
			// none may be the pinned page.
			for i := 0; i < 30; i++ {
				if err := s.PutDocument("items", doc(fmt.Sprintf("n%02d", i), largeXML(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			for _, r := range snap.Refs {
				raw, err := s.ReadRef(r)
				if err != nil {
					t.Fatalf("pinned read of %s: %v", r.Name, err)
				}
				got, err := DecodeDocument(r.Name, raw)
				if err != nil {
					t.Fatalf("pinned record %s torn: %v", r.Name, err)
				}
				if want := doc(r.Name, "<a><b>old-"+r.Name+"</b></a>"); !xmltree.EqualDocuments(want, got) {
					t.Fatalf("snapshot read of %s served another version", r.Name)
				}
			}
			page := snap.Refs[0].Page
			snap.Close()
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			auditPages(t, s)
			s.mu.Lock()
			_, live := s.slots[page]
			s.mu.Unlock()
			if live {
				t.Fatalf("page %d of dead slots still counted live", page)
			}
		})
	}
}

// chainedLayoutDocs are the documents of testdata/chained-layout.db, a
// store written (collection by collection, then the metadata record
// "engine:index" = "snapshot-bytes") before records were packed: every
// entry is a chain, and the header carries the older magic.
func chainedLayoutDocs() map[string]map[string]string {
	return map[string]map[string]string{
		"items": {
			"i1": "<Item><Code>I1</Code><Section>CD</Section></Item>",
			"i2": "<Item><Code>I2</Code><Section>Book</Section></Item>",
			"i3": "<Item><Code>I3</Code><Description>" + strings.Repeat("long text ", 500) + "</Description></Item>",
		},
		"aux": {"a1": "<a><b>aux</b></a>"},
	}
}

// A store of the chained-only layout opens and reads unchanged, then takes
// packed records, and is marked so a chained-only binary refuses it.
func TestChainedLayoutOpensAndTakesPackedRecords(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "chained-layout.db"))
	if err != nil {
		t.Fatal(err)
	}
	if string(old[:8]) != magicChained {
		t.Fatalf("testdata magic %q", old[:8])
	}
	path := filepath.Join(t.TempDir(), "old.db")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	model := chainedLayoutDocs()
	checkModel(t, s, model)
	if data, ok, err := s.GetMeta("engine:index"); err != nil || !ok || string(data) != "snapshot-bytes" {
		t.Fatalf("meta: %q %v %v", data, ok, err)
	}
	if r := refOf(t, s, "items", "i1"); r.Off != 0 {
		t.Fatalf("chained entry read as packed: %+v", r)
	}
	if err := s.PutDocument("items", doc("i4", smallXML(4))); err != nil {
		t.Fatal(err)
	}
	model["items"]["i4"] = smallXML(4)
	if err := s.PutDocument("items", doc("i1", smallXML(1))); err != nil {
		t.Fatal(err)
	}
	model["items"]["i1"] = smallXML(1)
	if err := s.DeleteDocument("items", "i2"); err != nil {
		t.Fatal(err)
	}
	delete(model["items"], "i2")
	for _, name := range []string{"i1", "i4"} {
		if r := refOf(t, s, "items", name); r.Off == 0 {
			t.Fatalf("new small record %s is not packed", name)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 8)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f.ReadAt(head, 0)
	f.Close()
	if string(head) != magic {
		t.Fatalf("rewritten header magic %q, want %q", head, magic)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkModel(t, s, model)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	auditPages(t, s)
}

// A randomized run of puts (small and large), replaces, deletes,
// checkpoints, pins and reopens matches a map model, and once every pin
// has closed and a checkpoint has run every page is reachable or free.
func TestPackedStoreRandomizedAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "r.db")
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			model := map[string]string{}
			var pins []*CollectionSnapshot
			closePins := func() {
				for _, p := range pins {
					p.Close()
				}
				pins = nil
			}
			for op := 0; op < 400; op++ {
				name := fmt.Sprintf("d%02d", r.Intn(40))
				switch k := r.Intn(100); {
				case k < 55:
					xml := smallXML(op)
					if r.Intn(8) == 0 {
						xml = largeXML(op)
					}
					if err := s.PutDocument("items", doc(name, xml)); err != nil {
						t.Fatal(err)
					}
					model[name] = xml
				case k < 75:
					if _, ok := model[name]; !ok {
						continue
					}
					if err := s.DeleteDocument("items", name); err != nil {
						t.Fatal(err)
					}
					delete(model, name)
				case k < 83:
					if snap, err := s.SnapshotCollection("items"); err == nil {
						pins = append(pins, snap)
					}
				case k < 93:
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if len(pins) == 0 {
						auditPages(t, s)
					}
				case k < 96:
					closePins()
				default:
					closePins()
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					if s, err = Open(path); err != nil {
						t.Fatal(err)
					}
				}
			}
			closePins()
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			auditPages(t, s)
			checkModel(t, s, map[string]map[string]string{"items": model})
		})
	}
}

// recountStats sums the catalog the way CollectionStats once did.
func recountStats(s *Store) map[string]Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]Stats{}
	for c, docs := range s.cat.Collections {
		st := Stats{Documents: len(docs)}
		for _, e := range docs {
			st.Bytes += e.Size
		}
		out[c] = st
	}
	return out
}

// checkTotals asserts CollectionStats equals a recount for every
// collection.
func checkTotals(t *testing.T, s *Store, when string) {
	t.Helper()
	for c, want := range recountStats(s) {
		got, err := s.CollectionStats(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: stats of %s = %+v, recount %+v", when, c, got, want)
		}
	}
}

// CollectionStats' kept totals equal a recount of the catalog after
// puts, replaces, deletes, drops, reopens and WAL replays.
func TestCollectionStatsTotalsMatchRecount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	path := filepath.Join(dir, "s.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	cols := []string{"a", "b", "c"}
	for op := 0; op < 300; op++ {
		c, name := cols[r.Intn(len(cols))], fmt.Sprintf("d%d", r.Intn(15))
		switch k := r.Intn(100); {
		case k < 60:
			xml := smallXML(op)
			if r.Intn(6) == 0 {
				xml = largeXML(op)
			}
			if err := s.PutDocument(c, doc(name, xml)); err != nil {
				t.Fatal(err)
			}
		case k < 85:
			s.DeleteDocument(c, name) // absent documents fail, changing nothing
		case k < 90:
			s.DropCollection(c)
		case k < 95:
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(path); err != nil {
				t.Fatal(err)
			}
			checkTotals(t, s, "reopen")
		default:
			crash := filepath.Join(dir, fmt.Sprintf("crash%d.db", op))
			copyCrashImage(t, path, crash)
			rs, err := Open(crash)
			if err != nil {
				t.Fatal(err)
			}
			checkTotals(t, rs, "replay")
			want, got := recountStats(s), recountStats(rs)
			if len(want) != len(got) {
				t.Fatalf("replay recovered %d collections, want %d", len(got), len(want))
			}
			for c, st := range want {
				if got[c] != st {
					t.Fatalf("replay: %s = %+v, want %+v", c, got[c], st)
				}
			}
			if err := rs.Close(); err != nil {
				t.Fatal(err)
			}
		}
		checkTotals(t, s, fmt.Sprintf("op %d", op))
	}
}

// TestSmallRecordsSharePages is a cost-class gate: after a sync, a store
// of ItemsSHor Items (records of a few hundred bytes) costs at most 1.25
// times its encoded record bytes on disk, header and catalog included, at
// 300 and at 3,000 Items: a record costs its bytes, not a page.
func TestSmallRecordsSharePages(t *testing.T) {
	for _, n := range []int{300, 3000} {
		path := filepath.Join(t.TempDir(), "items.db")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadCollection(toxgene.GenerateItems(toxgene.ItemsConfig{Docs: n, Seed: 1})); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		st, err := s.CollectionStats("items")
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		perRecord, encoded := float64(info.Size())/float64(n), float64(st.Bytes)/float64(n)
		t.Logf("%d Items: %.0f file bytes per record, %.0f encoded bytes per record", n, perRecord, encoded)
		if perRecord > 1.25*encoded {
			t.Errorf("%d Items: %.0f file bytes per record, over 1.25 × the %.0f encoded bytes", n, perRecord, encoded)
		}
	}
}
