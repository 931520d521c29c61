package engine

import (
	"runtime"
	"testing"

	"partix/internal/toxgene"
)

// raceEnabled is set in builds with the race detector (race_test.go).
var raceEnabled bool

// TestRetainedHeapPerIndexedDocument is the cost-class gate of an indexed
// document: the heap a node keeps per small Item (ItemsSHor, put one by
// one as a node receives them) is bounded, at n and at 10n documents. It
// is the Item's catalog entry and its share of the postings, path counts
// and value entries, and no per-document record of what the Item
// contributed: a per-document map added back fails it.
//
// Retained HeapInuse after runtime.GC, on linux/amd64 with go1.24 and
// GOMAXPROCS 2: while the index kept per-document reverse maps (and the
// engine a document → collections map), ≈6,700 B per Item at 300 Items
// and ≈4,270 B at 3,000; without them ≈2,540 B and ≈1,345 B. The bounds
// are those figures plus about 18 % and 10 % (fewer Items, more noise).
func TestRetainedHeapPerIndexedDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 300
	bound := map[int]uint64{n: 3000, 10 * n: 1480}
	inuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	for _, docs := range []int{n, 10 * n} {
		db := testDB(t, Options{WALNoFsync: true})
		base := inuse()
		for _, d := range toxgene.GenerateItems(toxgene.ItemsConfig{Docs: docs, Seed: 1}).Docs {
			if err := db.PutDocument("items", d); err != nil {
				t.Fatal(err)
			}
		}
		per := (inuse() - base) / uint64(docs)
		runtime.KeepAlive(db)
		t.Logf("%d Items: %d B retained per Item", docs, per)
		if per > bound[docs] {
			t.Fatalf("%d Items retain %d B of heap per Item, want at most %d", docs, per, bound[docs])
		}
	}
}
