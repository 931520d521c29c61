package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
	"partix/internal/xquery/exec"
)

// askCounter is the engine as a query source, counting the Decide calls
// a program makes.
type askCounter struct {
	*DB
	asks int
}

func (s *askCounter) Decide(collection string, hint *xquery.Hint, nodes bool) (int64, bool) {
	s.asks++
	return s.DB.Decide(collection, hint, nodes)
}

// runCounted runs q over db through the compiled program (the interpreter
// when q does not compile) and reports its answer and the Decide calls.
func runCounted(t *testing.T, db *DB, q string) (string, int) {
	t.Helper()
	e, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	src := &askCounter{DB: db}
	var res xquery.Seq
	if prog, ok := exec.Compile(e); ok {
		res, err = prog.Run(src)
	} else {
		res, err = xquery.Eval(e, src)
	}
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return fmt.Sprint(seqStrings(res)), src.asks
}

// TestDeciderShapes: every count/exists/empty fold answers as with the
// indexes off, and with them on it asks the engine to decide it, and so
// decodes no document, exactly when the table says it does. Six Items,
// sections CD, DVD, Book twice over, ids 1..6, and a PictureList of i/2
// Pictures on every even Item.
func TestDeciderShapes(t *testing.T) {
	c := xmltree.NewCollection("items")
	sections := []string{"CD", "DVD", "Book"}
	for i := 1; i <= 6; i++ {
		pics := ""
		if i%2 == 0 {
			pics = "<PictureList>"
			for p := 1; p <= i/2; p++ {
				pics += fmt.Sprintf(`<Picture n="%d">p%d</Picture>`, p, p)
			}
			pics += "</PictureList>"
		}
		c.Add(xmltree.MustParseString(fmt.Sprintf("i%d", i), fmt.Sprintf(
			`<Item id="%d"><Code>I%d</Code><Description>a good item %d</Description><Section>%s</Section>%s</Item>`,
			i, i, i, sections[(i-1)%3], pics)))
	}
	indexed, scan := testDB(t, Options{}), testDB(t, Options{DisableIndexes: true})
	for _, db := range []*DB{indexed, scan} {
		if err := db.LoadCollection(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		query       string
		decodesNone bool
	}{
		// A count with no term sums the path summary's node counts.
		{`count(collection("items")/Item/Code)`, true},
		{`count(collection("items")//Picture)`, true},
		{`count(collection("items")/Item/@id)`, true},
		{`count(for $i in collection("items")/Item return $i)`, true},
		// A root binding is one per document, so its candidates count it,
		// whatever its terms (HQ7, and the conjunctive where the old
		// probe recognizer rejected).
		{`count(collection("items")/Item[Section = "CD"])`, true},
		{`count(for $i in collection("items")/Item where $i/Section = "CD" return $i)`, true},
		{`exists(for $i in collection("items")/Item where $i/Section = "CD" and $i/@id < 5 return $i)`, true},
		{`empty(for $i in collection("items")/Item where $i/Section = "CD" and $i/@id > 4 return $i)`, true},
		// exists/empty with one term over the binding itself.
		{`exists(collection("items")/Item/Code)`, true},
		{`exists(collection("items")/Item[PictureList])`, true},
		{`exists(collection("items")/Item[Section = "CD"])`, true},
		{`exists(collection("items")/Item[@id < 5])`, true},
		{`exists(collection("items")/Item/Section[. = "CD"])`, true},
		{`exists(collection("items")/Item[5 >= @id])`, true},
		{`exists(for $i in collection("items")/Item where $i/PictureList return $i)`, true},
		{`exists(for $i in collection("items")/Item where exists($i/PictureList/Picture) return $i)`, true},
		{`exists(for $s in collection("items")/Item/Section where $s = "CD" return $s)`, true},
		{`empty(collection("items")/Item/PictureList/Picture[@n = 3])`, true},
		// A bare collection() binds one wrapper per document: the
		// documents count it.
		{`count(collection("items"))`, true},
		{`exists(collection("items"))`, true},
		// The binding may be the document wrapper, or a node under it.
		{`count(collection("items")//*)`, false},
		{`exists(collection("items")//*[Section = "CD"])`, false},
		// The result is not the binding, or the pipeline does more than bind.
		{`count(for $i in collection("items")/Item return $i/Code)`, false},
		{`count(for $i in collection("items")/Item order by $i/Code return $i)`, false},
		{`exists(for $a in collection("items")/Item, $b in collection("items")/Item return $a)`, false},
		{`exists(for $i in collection("items")/Item where $i/Section = "CD" return $i/Code)`, false},
		// A term the hint cannot keep with a Path: text(), !=, a path with
		// a predicate of its own, no literal operand, a string function
		// (HQ8, which never asks).
		{`count(collection("items")/Item/text())`, false},
		{`exists(collection("items")/Item[Section != "CD"])`, false},
		{`exists(for $i in collection("items")/Item where $i/PictureList[Picture] return $i)`, false},
		{`exists(collection("items")/Item[Section = Code])`, false},
		{`count(for $i in collection("items")/Item where contains($i/Description, "good") return $i)`, false},
		// Beyond a root binding the terms lose their correlation: a
		// predicate above the binding, a counted term, two terms.
		{`exists(collection("items")/Item[Section = "CD"]/Code)`, false},
		{`count(collection("items")/Item/PictureList/Picture[@n = 1])`, false},
		{`exists(for $p in collection("items")/Item/PictureList/Picture where $p/@n = 2 and $p = "p1" return $p)`, false},
	} {
		want, _ := runCounted(t, scan, tc.query)
		indexed.ResetStats()
		got, asks := runCounted(t, indexed, tc.query)
		if got != want {
			t.Errorf("%s = %s, want %s as with no indexes", tc.query, got, want)
		}
		st := indexed.Stats()
		decided := asks == 1 && st.IndexOnlyHits == 1 && st.DocsDecoded == 0
		if decided != tc.decodesNone || (!decided && (asks != 0 || st.DocsDecoded == 0)) {
			t.Errorf("%s: %d asks, %d decided, %d decoded; want decided %v", tc.query, asks, st.IndexOnlyHits, st.DocsDecoded, tc.decodesNone)
		}
	}
}

// longValue is an over-cap value: the value index lists its documents as
// overflow instead of indexing it.
func longValue(tail string) string { return strings.Repeat("z", valueCap+2) + tail }

// deciderDoc draws one document: usually an Item, sometimes an Other, with
// string, numeric, numeric-looking, NaN and over-cap values, attributes,
// and repeated Tag and Part elements under the root, a Part not always
// with a W; the key of Part k of document d is "d-k".
func deciderDoc(rng *rand.Rand, name string) *xmltree.Document {
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	root := "Item"
	if rng.Intn(6) == 0 {
		root = "Other"
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<%s id="%d" grade="%s">`, root, rng.Intn(8), pick("a", "5", "5.0", "NaN"))
	fmt.Fprintf(&b, `<Section>%s</Section>`, pick("CD", "DVD", "Book", "5.0", "007", "NaN", longValue("a"), longValue("b")))
	fmt.Fprintf(&b, `<Price>%s</Price>`, pick("12.5", "3", "abc", "NaN", "-1", "1e2"))
	b.WriteString("<Tags>")
	for n := rng.Intn(4); n > 0; n-- {
		fmt.Fprintf(&b, `<Tag>%s</Tag>`, pick("a", "b", "5", "x y"))
	}
	b.WriteString("</Tags><Parts>")
	for k := rng.Intn(4) - 1; k >= 0; k-- {
		fmt.Fprintf(&b, `<Part no="%d" key="%s-%d">`, rng.Intn(4), name, k)
		if rng.Intn(3) > 0 {
			fmt.Fprintf(&b, `<W>%s</W>`, pick("3", "x", "4.5", "7", longValue("w")))
		}
		b.WriteString("</Part>")
	}
	fmt.Fprintf(&b, `</Parts></%s>`, root)
	return xmltree.MustParseString(name, b.String())
}

// deciderDocs is the number of documents deciderQuery draws keys from.
const deciderDocs = 48

// deciderQuery draws a count, exists or empty fold over one binding with
// zero to two equality, range or existence terms, as where conjuncts or
// as step predicates of the binding's last step.
func deciderQuery(rng *rand.Rand) string {
	type binding struct {
		path string
		rels []string // "" is the binding itself
	}
	bindings := []binding{
		{`/Item`, []string{"Section", "Price", "@id", "@grade", "Tags/Tag", "Parts/Part/W", "Parts/Part/@no", "Tags/*", "//W"}},
		{`/*`, []string{"Section", "Price", "@id", "Tags/Tag", "Parts/Part", "//W"}},
		{`/Item/Parts/Part`, []string{"W", "@no", ""}},
		{`//Part`, []string{"W", "@no", ""}},
		{`/*/Tags/Tag`, []string{""}},
		{`/Item//W`, []string{""}},
		{`/Item//*`, []string{""}},
		// a predicate above the binding, on one Part of one document
		{fmt.Sprintf(`/*/Parts/Part[@key = "d%02d-%d"]/W`, rng.Intn(deciderDocs), rng.Intn(3)), []string{""}},
	}
	lits := []string{`"CD"`, `"DVD"`, `"5.0"`, `"007"`, `"NaN"`, `"abc"`, `"a"`, `"x y"`, `5`, `3`, `12.5`, `7`, `"zzz"`,
		`"` + longValue("a") + `"`, `"` + longValue("w") + `"`}
	ops := []string{"=", "<", "<=", ">", ">="}
	bd := bindings[rng.Intn(len(bindings))]
	terms := make([]string, rng.Intn(3))
	pred := rng.Intn(2) == 0
	for i := range terms {
		rel := bd.rels[rng.Intn(len(bd.rels))]
		var path string
		switch {
		case pred && rel == "":
			path = "."
		case pred && strings.HasPrefix(rel, "//"):
			path = "." + rel
		case pred:
			path = rel
		case rel == "":
			path = "$v"
		case strings.HasPrefix(rel, "//"):
			path = "$v" + rel
		default:
			path = "$v/" + rel
		}
		if rng.Intn(6) == 0 && rel != "" {
			terms[i] = path // an existence test
		} else {
			terms[i] = path + " " + ops[rng.Intn(len(ops))] + " " + lits[rng.Intn(len(lits))]
		}
	}
	fold := []string{"count", "exists", "empty"}[rng.Intn(3)]
	if pred {
		var b strings.Builder
		fmt.Fprintf(&b, `%s(collection("r")%s`, fold, bd.path)
		for _, term := range terms {
			b.WriteString("[" + term + "]")
		}
		return b.String() + ")"
	}
	where := ""
	if len(terms) > 0 {
		where = " where " + strings.Join(terms, " and ")
	}
	return fmt.Sprintf(`%s(for $v in collection("r")%s%s return $v)`, fold, bd.path, where)
}

// TestDecidedFoldsMatchDecoding draws count/exists/empty folds over
// equality and range terms (numeric, string, numeric-looking-string and
// NaN literals, attributes, * and // steps, over-cap values, repeated
// elements under a non-root binding with one and two terms) and checks
// every answer against xquery.Eval over the in-memory collection and
// against the engine with its indexes off. A second round runs after a
// third of the documents are deleted and put back redrawn, last name
// first, so their recycled docIDs are out of name order. The folds the
// engine decided from its candidate lists are counted; none would mean
// the check checks nothing.
func TestDecidedFoldsMatchDecoding(t *testing.T) {
	const docs = deciderDocs
	rng := rand.New(rand.NewSource(23))
	current := map[string]*xmltree.Document{}
	for i := 0; i < docs; i++ {
		name := fmt.Sprintf("d%02d", i)
		current[name] = deciderDoc(rng, name)
	}
	oracle := func() collSource {
		c := xmltree.NewCollection("r")
		names := make([]string, 0, len(current))
		for name := range current {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			c.Add(current[name])
		}
		return collSource{c}
	}
	indexed, scan := testDB(t, Options{}), testDB(t, Options{DisableIndexes: true})
	for _, db := range []*DB{indexed, scan} {
		if err := db.LoadCollection(oracle().c); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]string, 400)
	for i := range queries {
		queries[i] = deciderQuery(rng)
	}
	decided := int64(0)
	check := func(round string) {
		src := oracle()
		indexed.ResetStats()
		for _, q := range queries {
			e, err := xquery.Parse(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want, err := xquery.Eval(e, src)
			if err != nil {
				t.Fatalf("%s [oracle]: %v", q, err)
			}
			for _, db := range []*DB{indexed, scan} {
				got, err := db.QueryExpr(e)
				if err != nil {
					t.Fatalf("%s [%s]: %v", q, round, err)
				}
				if !slices.Equal(seqStrings(got), seqStrings(want)) {
					t.Fatalf("%s [%s, indexes off %v]: %v, want %v", q, round, db.opts.DisableIndexes, seqStrings(got), seqStrings(want))
				}
			}
		}
		st := indexed.Stats()
		t.Logf("%s: %d of %d folds decided from the candidate list", round, st.IndexOnlyHits, len(queries))
		decided += st.IndexOnlyHits
	}
	check("loaded")

	var moved []string
	for i := 0; i < docs; i += 3 {
		moved = append(moved, fmt.Sprintf("d%02d", i))
	}
	slices.Reverse(moved)
	for _, db := range []*DB{indexed, scan} {
		for _, name := range moved {
			if err := db.DeleteDocument("r", name); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range moved {
		current[name] = deciderDoc(rng, name)
		for _, db := range []*DB{indexed, scan} {
			if err := db.PutDocument("r", current[name]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("recycled")
	if decided == 0 {
		t.Fatal("no fold was decided from the candidate list")
	}
}

// TestDeciderCostIndependentOfCollectionSize: an HQ7-shaped count over
// n and 10n Items with the same 20 matches decodes no document at either
// size and allocates the same bytes per query (within 10 %): candidate
// selection walks the postings of the matches, not the collection.
// Meaningful without -race.
func TestDeciderCostIndependentOfCollectionSize(t *testing.T) {
	const (
		calls   = 200
		matches = 20
	)
	e, err := xquery.Parse(`count(for $i in collection("items")/Item where $i/Section = "CD" return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	type cost struct{ decoded, bytes uint64 }
	costs := map[int]cost{}
	for _, n := range []int{300, 3000} {
		c := xmltree.NewCollection("items")
		for i := 0; i < n; i++ {
			section := "DVD"
			if i%(n/matches) == 0 {
				section = "CD"
			}
			c.Add(xmltree.MustParseString(fmt.Sprintf("i%05d", i), fmt.Sprintf(
				`<Item id="%d"><Code>I%05d</Code><Section>%s</Section></Item>`, i, i, section)))
		}
		db := testDB(t, Options{WALNoFsync: true})
		if err := db.LoadCollection(c); err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := db.QueryExpr(e)
			if err != nil || !slices.Equal(seqStrings(res), []string{fmt.Sprint(matches)}) {
				t.Fatalf("%d Items: count = %v, %v; want %d", n, res, err, matches)
			}
		}
		run() // the first snapshot after the load builds the shared refs
		db.ResetStats()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		costs[n] = cost{uint64(db.Stats().DocsDecoded) / calls, (after.TotalAlloc - before.TotalAlloc) / calls}
	}
	t.Logf("per query: 300 Items %+v, 3000 Items %+v", costs[300], costs[3000])
	if costs[300].decoded != 0 || costs[3000].decoded != 0 {
		t.Fatalf("the count decodes documents: 300 Items %+v, 3000 Items %+v", costs[300], costs[3000])
	}
	if float64(costs[3000].bytes) > 1.1*float64(costs[300].bytes) {
		t.Fatalf("the count over 3000 Items allocates %d B, over 300 Items %d B: want the same",
			costs[3000].bytes, costs[300].bytes)
	}
}

// TestDecidedCountUnderWriter: an HQ7-shaped count decided beside a
// writer that deletes and re-puts one matching document at a time always
// counts 20 or 19 matches, what some committed state holds (run it under
// -race: Decide reads the index while the writer updates it).
func TestDecidedCountUnderWriter(t *testing.T) {
	c := xmltree.NewCollection("items")
	for i := 0; i < 60; i++ {
		section := "DVD"
		if i%3 == 0 {
			section = "CD"
		}
		c.Add(xmltree.MustParseString(fmt.Sprintf("i%02d", i), fmt.Sprintf(
			`<Item id="%d"><Section>%s</Section></Item>`, i, section)))
	}
	db := testDB(t, Options{WALNoFsync: true})
	if err := db.LoadCollection(c); err != nil {
		t.Fatal(err)
	}
	e, err := xquery.Parse(`count(for $i in collection("items")/Item where $i/Section = "CD" return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := c.Docs[(3*i)%len(c.Docs)]
			if err := db.DeleteDocument("items", doc.Name); err != nil {
				t.Error(err)
				return
			}
			if err := db.PutDocument("items", doc); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 300; r++ {
		res, err := db.QueryExpr(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(seqStrings(res)); got != "[20]" && got != "[19]" {
			t.Fatalf("count = %s beside the writer, want 20 or 19", got)
		}
	}
	if db.Stats().IndexOnlyHits == 0 {
		t.Fatal("no count was decided")
	}
}
