//go:build race

package engine

import (
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Under the race detector a stream's end poisons the read buffer its
// Origins keeps: a record reference held past the stream reads poison
// bytes, never the record or the next query's.
func TestOriginsPoisonsHeldRecord(t *testing.T) {
	db := bigItemDB(t, 16<<10)
	e, err := xquery.Parse(`collection("big")/Item`)
	if err != nil {
		t.Fatal(err)
	}
	origins := new(Origins)
	var held []byte
	if _, err := db.StreamQueryExpr(e, origins, func(s xquery.Seq) error {
		for _, it := range s {
			if _, _, node, ok := origins.Stored(it.(*xmltree.Node)); ok {
				held = node
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(held) == 0 {
		t.Fatal("no stored record was handed out")
	}
	for i, b := range held {
		if b != poisonByte {
			t.Fatalf("byte %d of a record held past its stream is %#x, want poison %#x", i, b, poisonByte)
		}
	}
}
