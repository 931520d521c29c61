package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// TestConcurrentSameDocPutCommitOrder pins the store/index commit-order
// fix: two writers race to replace the same document; because both
// commits happen under the collection write lock, the index must describe
// exactly the version the store made current — never the loser's. Run
// under -race this also checks the locking discipline of the whole write
// path.
func TestConcurrentSameDocPutCommitOrder(t *testing.T) {
	db := testDB(t, Options{WALNoFsync: true})
	variants := []string{"alphatok", "betatok"}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				d := xmltree.MustParseString("d",
					fmt.Sprintf("<Item><Tag>%s</Tag><N>%d</N></Item>", variants[w], i))
				if err := db.PutDocument("c", d); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stored, err := db.store.GetDocument("c", "d")
	if err != nil {
		t.Fatal(err)
	}
	var winner string
	stored.Root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.TextNode && (n.Value == variants[0] || n.Value == variants[1]) {
			winner = n.Value
		}
		return true
	})
	if winner == "" {
		t.Fatal("stored document carries neither variant token")
	}
	db.mu.RLock()
	ix := db.idx["c"]
	db.mu.RUnlock()
	for _, v := range variants {
		set := candidateNames(ix, &xquery.Hint{Constraints: []xquery.Constraint{{Tokens: []string{v}}}})
		if v == winner && !set["d"] {
			t.Fatalf("index lost the winning version (token %q)", v)
		}
		if v != winner && set["d"] {
			t.Fatalf("index still describes the losing version (token %q)", v)
		}
	}
}

// TestQuerySnapshotIsolation starts a query, then deletes and replaces
// documents (and checkpoints) while the query is mid-iteration: the query
// must observe exactly the documents of its snapshot, with the content
// they had at snapshot time.
func TestQuerySnapshotIsolation(t *testing.T) {
	db := testDB(t, Options{WALNoFsync: true})
	const docs = 10
	c := xmltree.NewCollection("items")
	for i := 0; i < docs; i++ {
		c.Add(xmltree.MustParseString(fmt.Sprintf("d%d", i),
			fmt.Sprintf("<Item><N>%d</N><V>original</V></Item>", i)))
	}
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}

	firstDelivered := make(chan struct{})
	mutationsDone := make(chan struct{})
	var got []*xmltree.Document
	queryErr := make(chan error, 1)
	go func() {
		first := true
		queryErr <- db.Docs("items", nil, func(d *xmltree.Document) error {
			if first {
				first = false
				close(firstDelivered)
				<-mutationsDone // let the writer churn mid-iteration
			}
			got = append(got, d)
			return nil
		})
	}()

	<-firstDelivered
	for i := 5; i < docs; i++ {
		if err := db.DeleteDocument("items", fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		d := xmltree.MustParseString(fmt.Sprintf("d%d", i),
			fmt.Sprintf("<Item><N>%d</N><V>rewritten</V></Item>", i))
		if err := db.PutDocument("items", d); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint tries to recycle the replaced/deleted chains; the
	// query's pin must keep them readable.
	if err := db.store.Sync(); err != nil {
		t.Fatal(err)
	}
	close(mutationsDone)
	if err := <-queryErr; err != nil {
		t.Fatal(err)
	}

	if len(got) != docs {
		t.Fatalf("query saw %d documents, snapshot had %d", len(got), docs)
	}
	for _, d := range got {
		val := ""
		d.Root.Walk(func(n *xmltree.Node) bool {
			if n.Kind == xmltree.TextNode && (n.Value == "original" || n.Value == "rewritten") {
				val = n.Value
			}
			return true
		})
		if val != "original" {
			t.Fatalf("%s: snapshot read saw %q, want the snapshot-time version", d.Name, val)
		}
	}
}

// TestRecoveryRebuildsStaleIndexSnapshot crashes an engine after commits
// that postdate the persisted index snapshot: the reopened engine must
// notice the WAL replay and rebuild its index by scanning, instead of
// trusting a snapshot that describes fewer documents than the recovered
// catalog holds.
func TestRecoveryRebuildsStaleIndexSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3; i++ {
		d := xmltree.MustParseString(fmt.Sprintf("d%d", i),
			fmt.Sprintf("<Item><Tag>earlytok</Tag><N>%d</N></Item>", i))
		if err := db.PutDocument("c", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil { // persists the index snapshot
		t.Fatal(err)
	}
	late := xmltree.MustParseString("late", "<Item><Tag>latetok</Tag></Item>")
	if err := db.PutDocument("c", late); err != nil { // snapshot now stale
		t.Fatal(err)
	}

	crash := filepath.Join(dir, "crash.db")
	for _, suffix := range []string{"", ".wal"} {
		data, err := os.ReadFile(path + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crash+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(crash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.store.RecoveredMutations() == 0 {
		t.Fatal("expected WAL replay on the crashed copy")
	}
	db2.mu.RLock()
	ix := db2.idx["c"]
	db2.mu.RUnlock()
	set := candidateNames(ix, &xquery.Hint{Constraints: []xquery.Constraint{{Tokens: []string{"latetok"}}}})
	if !set["late"] {
		t.Fatal("rebuilt index does not describe the document recovered from the WAL")
	}
}

// TestMixedReadWriteConcurrency hammers queries against concurrent
// writers on the same collection; under -race it proves queries never
// observe a torn state and never serialize on the write path's locks in a
// way that deadlocks.
func TestMixedReadWriteConcurrency(t *testing.T) {
	db := testDB(t, Options{WALNoFsync: true})
	loadItems(t, db)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				d := xmltree.MustParseString(fmt.Sprintf("w%d-%d", w, i%6), fmt.Sprintf(
					`<Item id="%d"><Code>W%d</Code><Section>CD</Section></Item>`, i, i))
				if err := db.PutDocument("items", d); err != nil {
					errs <- err
					return
				}
				if i%10 == 9 {
					if err := db.DeleteDocument("items", d.Name); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := db.Query(`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
