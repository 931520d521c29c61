package wire

import "testing"

// The full planner-statistics snapshot rides the stats exchange when the
// client asks for it.
func TestStatisticsRoundTrip(t *testing.T) {
	db := newNodeDB(t, 5)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	c := dialStream(t, addr, ClientOptions{})

	cs, err := c.CollectionStatistics("c")
	if err != nil {
		t.Fatal(err)
	}
	if cs == nil {
		t.Fatal("no statistics")
	}
	if cs.Docs != 5 || !cs.Complete {
		t.Fatalf("snapshot: %+v", cs)
	}
	if ps := cs.Paths["Item/Code"]; ps.Docs != 5 || ps.Distinct != 5 {
		t.Fatalf("Item/Code stats: %+v", ps)
	}
	if cs.Generation != db.Generation("c") {
		t.Fatalf("generation %d, node at %d", cs.Generation, db.Generation("c"))
	}

	// The plain stats exchange is untouched.
	st, err := c.CollectionStats("c")
	if err != nil {
		t.Fatal(err)
	}
	if st.Documents != 5 {
		t.Fatalf("basic stats: %+v", st)
	}
}
