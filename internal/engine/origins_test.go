package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// bigItemDB opens a DB whose collection "big" holds one Item with about
// size bytes of paragraphs under its Body, which a query reading only the
// Code drops unread.
func bigItemDB(t *testing.T, size int) *DB {
	t.Helper()
	db := testDB(t, Options{WALNoFsync: true})
	var body strings.Builder
	for i := 0; body.Len() < size; i++ {
		fmt.Fprintf(&body, "<p>paragraph %d of the body</p>", i)
	}
	c := xmltree.NewCollection("big")
	c.Add(xmltree.MustParseString("b1", "<Item><Code>C1</Code><Body>"+body.String()+"</Body></Item>"))
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
	return db
}

// A repeated scan of a large record on one Origins (one connection's
// queries) reads into the buffer its first run left: after that run, the
// bytes a query allocates do not grow with the record. Records of 24 KiB
// and of 192 KiB, both within the kept buffer's cap, cost the same bytes
// per query within 1 KiB. Meaningful without -race (verify.sh runs it so).
func TestRepeatedScanOnOriginsAllocsIndependentOfRecordSize(t *testing.T) {
	e, err := xquery.Parse(`for $i in collection("big")/Item return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	perQuery := map[int]uint64{}
	for _, size := range []int{24 << 10, 192 << 10} {
		db := bigItemDB(t, size)
		origins := new(Origins)
		run := func() {
			items := 0
			if _, err := db.StreamQueryExpr(e, origins, func(s xquery.Seq) error {
				items += len(s)
				return nil
			}); err != nil || items != 1 {
				t.Fatalf("%d-byte record: %d items, %v", size, items, err)
			}
		}
		run() // the first run sizes the kept buffer
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perQuery[size] = (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := perQuery[24<<10], perQuery[192<<10]
	t.Logf("bytes per query: 24 KiB record %d, 192 KiB record %d", small, large)
	if large > small+1<<10 {
		t.Fatalf("a query over a 192 KiB record allocates %d bytes, over a 24 KiB one %d: want the same", large, small)
	}
}
