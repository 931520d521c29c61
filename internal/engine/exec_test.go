package engine

import (
	"fmt"
	"reflect"
	"testing"

	"partix/internal/storage"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// execQueries spans the compiled subset through the full engine
// (snapshots, hints, projected decoding).
var execQueries = []string{
	`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
	`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
	`for $i in collection("items")/Item order by $i/Code descending return $i/Code`,
	`collection("items")/Item[Section = "DVD"]/@id`,
	`count(collection("items")/Item)`,
	`exists(for $i in collection("items")/Item where $i/Section = "Book" return $i)`,
	`sum(for $i in collection("items")/Item return $i/@id)`,
	`for $i in collection("items")/Item return ($i/Code, $i/Section)`,
}

// TestCompiledExecMatchesInterpreter runs execQueries and every Figure
// 7(a) horizontal query through the engine, compiled where the shape
// allows, and checks each answer against xquery.Eval over the same DB:
// the interpreter is the compiled pipeline's oracle.
func TestCompiledExecMatchesInterpreter(t *testing.T) {
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 60, Seed: 7})
	db := testDB(t, Options{})
	if err := db.LoadCollection(items); err != nil {
		t.Fatal(err)
	}
	queries := append([]string(nil), execQueries...)
	for _, q := range workload.Horizontal(items.Name) {
		queries = append(queries, q.Text)
	}
	for _, q := range queries {
		e, err := xquery.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := xquery.Eval(e, db)
		if err != nil {
			t.Fatalf("%s (interpreter): %v", q, err)
		}
		got, err := db.QueryExpr(e)
		if err != nil {
			t.Fatalf("%s (compiled): %v", q, err)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: compiled %d items, interpreter %d", q, len(got), len(want))
		}
		for i := range want {
			wn, wIsNode := want[i].(*xmltree.Node)
			gn, gIsNode := got[i].(*xmltree.Node)
			if wIsNode != gIsNode || wIsNode && (wn.ID != gn.ID || !xmltree.Equal(wn, gn)) || !wIsNode && want[i] != got[i] {
				t.Fatalf("%s: item %d: compiled %q, interpreter %q",
					q, i, xquery.ItemString(got[i]), xquery.ItemString(want[i]))
			}
		}
	}
	if st := db.Stats(); st.Compiled == 0 {
		t.Fatalf("engine reports no compiled queries: %+v", st)
	}
}

// TestStreamQueryExpr verifies the streaming entry point delivers the
// same items as Query, in bounded chunks, for large results.
func TestStreamQueryExpr(t *testing.T) {
	db := testDB(t, Options{})
	c := xmltree.NewCollection("big")
	for i := 0; i < 300; i++ {
		c.Add(xmltree.MustParseString(fmt.Sprintf("d%d", i),
			fmt.Sprintf("<r><v>a%03d</v><v>b%03d</v></r>", i, i)))
	}
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
	const q = `collection("big")/r/v`
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	var got xquery.Seq
	chunks := 0
	origins := new(Origins)
	total, err := db.StreamQueryExpr(e, origins, func(items xquery.Seq) error {
		chunks++
		for _, it := range items {
			got = append(got, storedValue(t, origins, it))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(want) || !reflect.DeepEqual(seqStrings(want), seqStrings(got)) {
		t.Fatalf("stream total=%d chunks=%d, want %d items", total, chunks, len(want))
	}
	if chunks < 2 {
		t.Fatalf("600 items arrived in %d chunk(s); want bounded frames", chunks)
	}
}

// storedValue is it, or for a shell (a node a stream built only in part)
// the node its record's bytes hold, decoded while origins still holds them.
func storedValue(t *testing.T, origins *Origins, it xquery.Item) xquery.Item {
	t.Helper()
	n, ok := it.(*xmltree.Node)
	if !ok || !n.Partial() {
		return it
	}
	version, table, node, ok := origins.Stored(n)
	if !ok {
		t.Fatalf("the record of shell <%s> is not held", n.Name)
	}
	roots, err := storage.DecodeBatch([][]byte{append(append([]byte{version}, table...), node...)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return roots[0]
}

func seqStrings(s xquery.Seq) []string {
	out := make([]string, len(s))
	for i, it := range s {
		out[i] = xquery.ItemString(it)
	}
	return out
}

// TestCompiledExecIndexOnly verifies the compiled fold path still answers
// probe-eligible deciders from indexes alone, decoding no documents.
func TestCompiledExecIndexOnly(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)
	db.ResetStats()
	res, err := db.Query(`count(collection("items")/Item)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 4.0 {
		t.Fatalf("got %v", res)
	}
	st := db.Stats()
	if st.Compiled != 1 {
		t.Fatalf("query did not compile: %+v", st)
	}
	if st.IndexOnlyHits == 0 || st.DocsDecoded != 0 {
		t.Fatalf("count() decoded documents: %+v", st)
	}
}

// collSource is an in-memory xquery.Source over one collection, the
// interpreter's input when it serves as the engine's oracle.
type collSource struct{ c *xmltree.Collection }

func (s collSource) Docs(name string, _ *xquery.Hint, fn func(*xmltree.Document) error) error {
	if name != s.c.Name {
		return fmt.Errorf("no collection %q", name)
	}
	for _, d := range s.c.Docs {
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

func (s collSource) Doc(name string) (*xmltree.Document, error) {
	if d := s.c.Doc(name); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("no document %q", name)
}

// TestProjectedScansMatchInterpreter runs the horizontal queries the
// compiled executor projects (HQ4, HQ5, HQ8) and one it cannot (HQ2
// returns whole Items) over ItemsLHor documents, whose picture lists and
// price histories the projected queries never read. Each must give the
// interpreter's answer over the in-memory collection, and a projected scan
// must really build less than whole documents.
func TestProjectedScansMatchInterpreter(t *testing.T) {
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 10, Seed: 3, Large: true})
	oracle := collSource{items}
	set := workload.Horizontal(items.Name)
	db := testDB(t, Options{})
	if err := db.LoadCollection(items); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"HQ2", "HQ4", "HQ5", "HQ8"} {
		q := workload.ByID(set, id).Text
		e, err := xquery.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := xquery.Eval(e, oracle)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: the oracle answers %d items, err=%v", q, len(want), err)
		}
		got, err := db.QueryExpr(e)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d items, want %d", q, len(got), len(want))
		}
		for i := range want {
			wn, wIsNode := want[i].(*xmltree.Node)
			gn, gIsNode := got[i].(*xmltree.Node)
			if wIsNode != gIsNode || wIsNode && (wn.ID != gn.ID || !xmltree.Equal(wn, gn)) || !wIsNode && want[i] != got[i] {
				t.Fatalf("%s: item %d = %s, want %s", q, i, xquery.ItemString(got[i]), xquery.ItemString(want[i]))
			}
		}
	}
	wholeNodes := items.TotalNodes()
	codeOnly := &xmltree.Projection{}
	codeOnly.Add("Code").KeepWhole()
	built := 0
	err := db.Docs(items.Name, &xquery.Hint{Keep: codeOnly}, func(d *xmltree.Document) error {
		built += d.CountNodes()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if built >= wholeNodes/10 {
		t.Fatalf("a Code-only scan built %d nodes of %d", built, wholeNodes)
	}
}
