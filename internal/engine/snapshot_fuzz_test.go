package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"testing"

	"partix/internal/xmltree"
)

// FuzzIndexSnapshot feeds arbitrary bytes through the index snapshot's
// decoding: the gob decode loadIndexSnapshot runs and indexFromSnapshot.
// Neither may panic, and an index rebuilt from an accepted record
// references no docID outside its name table or in a recycled slot. The
// seeds are a valid v4 record, its truncations, and records whose lists
// name a docID past the table or a recycled one.
func FuzzIndexSnapshot(f *testing.F) {
	valid := validIndexSnapshot(f)
	f.Add(valid)
	for _, n := range []int{1, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, bad := range []indexSnapshotV4{
		{Docs: []string{"d0"}, Postings: map[string][]uint32{"good": {7}}, PathsBuilt: true},
		{Docs: []string{"d0"}, PathsBuilt: true, PathDocs: map[string][]uint32{"/Item": {0, 3}}, PathCounts: map[string][]uint32{"/Item": {1, 1}}},
		{Docs: []string{"d0"}, PathsBuilt: true, PathDocs: map[string][]uint32{"/Item": {0}}, PathCounts: map[string][]uint32{"/Item": {1}},
			Values: map[string][]valueSnapV4{"/Item": {{Value: "x", Docs: []uint32{1 << 31}}}}},
		{Docs: []string{"d0"}, PathsBuilt: true, PathDocs: map[string][]uint32{"/Item": {0}}, PathCounts: map[string][]uint32{"/Item": {1}},
			Overflow: map[string][]uint32{"/Item": {2}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(map[string]indexSnapshotV4{"items": bad}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeIndexSnapshot(data)
		if err != nil {
			return
		}
		for col, s := range snap {
			ix, ok := indexFromSnapshot(s)
			if !ok {
				continue
			}
			if err := docIDsInTable(ix); err != nil {
				t.Fatalf("collection %q: accepted snapshot %v", col, err)
			}
		}
	})
}

// The valid seed decodes to indexes that pass the fuzz target's check.
func TestValidIndexSnapshotSeedLoads(t *testing.T) {
	snap, err := decodeIndexSnapshot(validIndexSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := indexFromSnapshot(snap["items"])
	if !ok {
		t.Fatal("the valid seed does not load")
	}
	if err := docIDsInTable(ix); err != nil {
		t.Fatal(err)
	}
	if len(ix.paths) == 0 || len(ix.values) == 0 || len(ix.postings) == 0 {
		t.Fatalf("the valid seed loads %d paths, %d value lists, %d postings: want all three", len(ix.paths), len(ix.values), len(ix.postings))
	}
}

// validIndexSnapshot is the v4 record a node holding a few Items, one of
// them deleted (a recycled docID slot), saves.
func validIndexSnapshot(tb testing.TB) []byte {
	tb.Helper()
	db, err := Open(filepath.Join(tb.TempDir(), "snap.db"), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	db.Store().CreateCollection("items")
	for i := 0; i < 4; i++ {
		doc := xmltree.MustParseString(fmt.Sprintf("i%d", i), fmt.Sprintf(
			`<Item id="%d"><Code>I%d</Code><Section>CD</Section><Description>a good disc</Description></Item>`, i, i))
		if err := db.PutDocument("items", doc); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.DeleteDocument("items", "i1"); err != nil {
		tb.Fatal(err)
	}
	if err := db.saveIndexSnapshot(); err != nil {
		tb.Fatal(err)
	}
	data, ok, err := db.store.GetMeta(indexMetaKeyV4)
	if err != nil || !ok {
		tb.Fatalf("no v4 record saved (%v)", err)
	}
	return data
}

// docIDsInTable reports the first docID the index references that its
// name table does not hold.
func docIDsInTable(ix *docIndex) error {
	check := func(what string, ids []docID) error {
		for _, id := range ids {
			if int(id) >= len(ix.names) || ix.names[id] == "" {
				return fmt.Errorf("%s references docID %d, outside its %d-entry name table %q", what, id, len(ix.names), ix.names)
			}
		}
		return nil
	}
	for tok, ids := range ix.postings {
		if err := check("token "+tok, ids); err != nil {
			return err
		}
	}
	for key, p := range ix.paths {
		if err := check("path "+key, p.ids); err != nil {
			return err
		}
	}
	for key, vl := range ix.values {
		for _, e := range vl.entries {
			if err := check("a value at "+key, e.ids); err != nil {
				return err
			}
		}
		if err := check("the overflow at "+key, vl.overflow); err != nil {
			return err
		}
	}
	for name, id := range ix.ids {
		if err := check("name "+name, []docID{id}); err != nil {
			return err
		}
	}
	return nil
}
