package engine

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"partix/internal/xmltree"
)

// valueDoc is one document holding v at Item/V.
func valueDoc(name, v string) *xmltree.Document {
	d := xmltree.MustParseString(name, `<Item><V>x</V></Item>`)
	d.Root.Child("V").Children[0].Value = v
	return d
}

func pathStats(t *testing.T, db *DB, key string) PathStats {
	t.Helper()
	cs, err := db.CollectionStatistics("c")
	if err != nil {
		t.Fatal(err)
	}
	return cs.Paths[key]
}

// A value is keyed as the evaluator's = compares it: a number by its
// value, so "1e2" finds "100" and "0" finds "-0", anything else by its
// raw string.
func TestMembershipKeysFollowEquality(t *testing.T) {
	db := testDB(t, Options{})
	for i, v := range []string{"100", "-0", "abc", " 7 ", "NaN", "2.50"} {
		if err := db.PutDocument("c", valueDoc(fmt.Sprintf("d%d", i), v)); err != nil {
			t.Fatal(err)
		}
	}
	ps := pathStats(t, db, "Item/V")
	if len(ps.Members) == 0 {
		t.Fatalf("no membership filter: %+v", ps)
	}
	for _, lit := range []string{"100", "1e2", "100.0", "+100", "-0", "0", "0.0", "abc", "7", "7.0", "2.5", "25e-1"} {
		if !ps.MayHold(lit) {
			t.Errorf("MayHold(%q) = false, but a value equal to it is at the path", lit)
		}
	}
	for _, lit := range []string{"abd", "ABC", "101", "1e3", "8", "x"} {
		if ps.MayHold(lit) {
			t.Errorf("MayHold(%q) = true for an absent value", lit)
		}
	}
}

// Puts, deletes, re-puts, bulk loads and growth far past the filter's
// sizing never lose a value that is present: the filter stays a superset.
func TestMembershipNoFalseNegatives(t *testing.T) {
	db := testDB(t, Options{})
	rng := rand.New(rand.NewSource(3))
	present := map[string]string{} // doc → value
	value := func() string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprint(rng.Intn(500))
		case 1:
			return fmt.Sprintf("%de%d", rng.Intn(9)+1, rng.Intn(3))
		}
		return fmt.Sprintf("v%04d", rng.Intn(2000))
	}
	check := func(step int) {
		t.Helper()
		ps := pathStats(t, db, "Item/V")
		for doc, v := range present {
			if !ps.MayHold(v) {
				t.Fatalf("step %d: value %q of %s missing from the filter", step, v, doc)
			}
		}
	}
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			doc := fmt.Sprintf("d%03d", rng.Intn(400))
			v := value()
			if err := db.PutDocument("c", valueDoc(doc, v)); err != nil {
				t.Fatal(err)
			}
			present[doc] = v
		case op < 8:
			for doc := range present {
				if err := db.DeleteDocument("c", doc); err != nil {
					t.Fatal(err)
				}
				delete(present, doc)
				break
			}
		default:
			c := xmltree.NewCollection("c")
			for i := 0; i < 20; i++ {
				doc := fmt.Sprintf("b%03d", rng.Intn(200))
				v := value()
				c.Add(valueDoc(doc, v))
				present[doc] = v
			}
			// LoadCollection keeps the last of duplicate names, as present does.
			if err := db.LoadCollection(c); err != nil {
				t.Fatal(err)
			}
		}
		if step%7 == 0 {
			check(step)
		}
	}
	check(300)
}

// TestMembershipFalsePositiveRate measures the filter's false-positive
// rate over values known to be absent, right after a bulk load builds it
// and after puts have grown it to the point where it is rebuilt.
func TestMembershipFalsePositiveRate(t *testing.T) {
	const n, probes = 4000, 40000
	db := testDB(t, Options{})
	c := xmltree.NewCollection("c")
	for i := 0; i < n; i++ {
		c.Add(valueDoc(fmt.Sprintf("d%05d", i), fmt.Sprintf("I%06d", 2*i)))
	}
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
	// Half the probes are strings between the stored codes, half numbers.
	rate := func(ps PathStats) float64 {
		fp := 0
		for i := 0; i < probes/2; i++ {
			if ps.MayHold(fmt.Sprintf("I%06d", 2*i+1)) {
				fp++
			}
			if ps.MayHold(fmt.Sprint(1000003 + i)) {
				fp++
			}
		}
		return float64(fp) / probes
	}
	built := rate(pathStats(t, db, "Item/V"))
	// Puts of new values fill the filter up to twice its sizing.
	for i := n; i < 2*n; i++ {
		if err := db.PutDocument("c", valueDoc(fmt.Sprintf("d%05d", i), fmt.Sprintf("I%06d", 2*i))); err != nil {
			t.Fatal(err)
		}
	}
	full := rate(pathStats(t, db, "Item/V"))
	t.Logf("false-positive rate: %.3f%% as built, %.3f%% at twice its sizing (%d probes)",
		100*built, 100*full, probes)
	if built > 0.02 {
		t.Fatalf("false-positive rate %.3f%% as built, want <= 2%%", 100*built)
	}
}

// TestStatisticsSnapshotBytesBounded: a statistics snapshot's filters fit
// the per-snapshot budget at ten times the size, the largest dropped first,
// so its encoded size stays bounded however many values a fragment holds.
func TestStatisticsSnapshotBytesBounded(t *testing.T) {
	size := func(docs int) (int, *CollectionStatistics) {
		db := testDB(t, Options{})
		c := xmltree.NewCollection("c")
		for i := 0; i < docs; i++ {
			c.Add(xmltree.MustParseString(fmt.Sprintf("d%05d", i), fmt.Sprintf(
				`<Item id="%d"><Code>I%06d</Code><Name>name %d</Name><Section>S%d</Section><Price>%d</Price></Item>`,
				i, i, i, i%4, i%50)))
		}
		if err := db.LoadCollection(c); err != nil {
			t.Fatal(err)
		}
		cs, err := db.CollectionStatistics("c")
		if err != nil {
			t.Fatal(err)
		}
		var w countWriter
		if err := gob.NewEncoder(&w).Encode(cs); err != nil {
			t.Fatal(err)
		}
		return w.n, cs
	}
	small, _ := size(500)
	large, cs := size(5000)
	filters := 0
	for key, ps := range cs.Paths {
		filters += len(ps.Members)
		if key == "Item/Section" && len(ps.Members) == 0 {
			t.Fatalf("the smallest filter was dropped: %+v", ps)
		}
	}
	t.Logf("snapshot %d B at 500 documents, %d B at 5000 (filters %d B, budget %d B)", small, large, filters, statsMemberBudget)
	if filters > statsMemberBudget {
		t.Fatalf("filters take %d B, over the %d B budget", filters, statsMemberBudget)
	}
	if large > statsMemberBudget+2<<10 {
		t.Fatalf("snapshot %d B at 5000 documents, want at most the filter budget plus 2 KiB", large)
	}
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

var _ io.Writer = (*countWriter)(nil)

// Every mutation reports its collection's new generation to the commit
// subscribers, once it is visible and before it returns; a cancelled
// subscription hears nothing more.
func TestOnCommitReportsEveryMutation(t *testing.T) {
	db := testDB(t, Options{})
	var mu sync.Mutex
	var got []string
	cancel := db.OnCommit(func(collection string, gen uint64) {
		// The mutation is visible when the subscriber hears of it.
		if db.Generation(collection) < gen {
			t.Errorf("%s: told of generation %d while %d is visible", collection, gen, db.Generation(collection))
		}
		mu.Lock()
		got = append(got, fmt.Sprintf("%s@%d", collection, gen))
		mu.Unlock()
	})
	if err := db.PutDocument("c", valueDoc("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCollection(xmltree.NewCollection("c", valueDoc("b", "2"))); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument("c", "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument("c", "missing"); err == nil {
		t.Fatal("deleting a missing document succeeded")
	}
	if err := db.DropCollection("c"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := db.PutDocument("d", valueDoc("a", "1")); err != nil {
		t.Fatal(err)
	}
	want := "c@1 c@2 c@3 c@4 c@5"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("commits reported %q, want %q", s, want)
	}
}
