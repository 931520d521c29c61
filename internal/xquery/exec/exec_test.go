package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// memSource is an in-memory Source; it counts scanned documents so tests
// can assert early termination.
type memSource struct {
	cols    map[string]*xmltree.Collection
	scanned int
}

func newMemSource(cols ...*xmltree.Collection) *memSource {
	s := &memSource{cols: map[string]*xmltree.Collection{}}
	for _, c := range cols {
		s.cols[c.Name] = c
	}
	return s
}

func (s *memSource) Docs(name string, _ *xquery.Hint, fn func(*xmltree.Document) error) error {
	c, ok := s.cols[name]
	if !ok {
		return fmt.Errorf("no collection %q", name)
	}
	for _, d := range c.Docs {
		s.scanned++
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

func (s *memSource) Doc(name string) (*xmltree.Document, error) {
	for _, c := range s.cols {
		for _, d := range c.Docs {
			if d.Name == name {
				return d, nil
			}
		}
	}
	return nil, fmt.Errorf("no document %q", name)
}

// projSource serves a memSource's documents as stored records decoded
// under the scan's projection (Hint.Keep), as the engine does. projected
// counts the scans that received one.
type projSource struct {
	recs      map[string][]record
	projected int
}

type record struct {
	name string
	data []byte
}

func newProjSource(t testing.TB, src *memSource) *projSource {
	t.Helper()
	s := &projSource{recs: map[string][]record{}}
	for name, c := range src.cols {
		recs := []record{}
		for _, d := range c.Docs {
			data, err := storage.EncodeDocument(d)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, record{d.Name, data})
		}
		s.recs[name] = recs
	}
	return s
}

func (s *projSource) Docs(name string, h *xquery.Hint, fn func(*xmltree.Document) error) error {
	recs, ok := s.recs[name]
	if !ok {
		return fmt.Errorf("no collection %q", name)
	}
	var keep *xmltree.Projection
	if h != nil && h.Keep != nil {
		keep = h.Keep
		s.projected++
	}
	for _, r := range recs {
		d, err := storage.DecodeProjected(r.name, r.data, keep)
		if err != nil {
			return err
		}
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

func (s *projSource) Doc(name string) (*xmltree.Document, error) {
	for _, recs := range s.recs {
		for _, r := range recs {
			if r.name == name {
				return storage.DecodeDocument(r.name, r.data)
			}
		}
	}
	return nil, fmt.Errorf("no document %q", name)
}

// runProjected runs a compiled program over the documents of src decoded
// under its projection and requires the interpreter's result over whole
// trees: the same error, or items whose nodes are structurally equal
// subtrees with the same IDs.
func runProjected(t *testing.T, src *memSource, query string, prog *Program, want xquery.Seq, wantErr error) *projSource {
	t.Helper()
	proj := newProjSource(t, src)
	got, gotErr := prog.Run(proj)
	if (wantErr != nil) != (gotErr != nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: interpreter err=%v, projected err=%v", query, wantErr, gotErr)
	}
	if len(want) != len(got) {
		t.Fatalf("%s:\ninterp    (%d): %s\nprojected (%d): %s", query, len(want), seqString(want), len(got), seqString(got))
	}
	for i := range want {
		wn, wIsNode := want[i].(*xmltree.Node)
		gn, gIsNode := got[i].(*xmltree.Node)
		same := wIsNode == gIsNode && (wIsNode && wn.ID == gn.ID && xmltree.Equal(wn, gn) || !wIsNode && want[i] == got[i])
		if !same {
			t.Fatalf("%s: item %d: interpreter %s, projected %s", query, i, xquery.ItemString(want[i]), xquery.ItemString(got[i]))
		}
	}
	return proj
}

// keepInReads fails when the program's scan projection, or the one it
// hands a Shipper, keeps an element no read of the query's read set
// (xquery.ExtractReads) reaches: every trie node's path must be a prefix
// of some read's path. A shipped node adds no read of its own: below it
// the trie holds only the children the query reads.
func keepInReads(t *testing.T, query string, e xquery.Expr, prog *Program) {
	t.Helper()
	keeps := []*xmltree.Projection{prog.Keep()}
	if h := prog.pipe.shipHint; h != nil {
		keeps = append(keeps, h.Keep)
	}
	reads := xquery.ExtractReads(e)
	for _, keep := range keeps {
		if keep == nil {
			continue
		}
		for _, path := range triePaths(keep.String()) {
			if !onSomeRead(path, reads) {
				t.Fatalf("%s: keep %s holds %v, which no read reaches (%+v)", query, keep, path, reads.Paths)
			}
		}
	}
}

// triePaths lists the element path, below the root element, of every node
// of a projection trie in its String form.
func triePaths(s string) [][]string {
	var paths [][]string
	var stack []string
	name, depth := "", 0
	flush := func() {
		if name != "" {
			paths = append(paths, append(slices.Clone(stack), name))
		}
	}
	for _, c := range s {
		switch c {
		case '{':
			if depth > 0 {
				flush()
				stack = append(stack, name)
			}
			name = ""
			depth++
		case ',', '*':
			flush()
			name = ""
		case '^': // a shipped node, whose own trie may follow
		case '}':
			flush()
			name = ""
			if depth--; depth > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			name += string(c)
		}
	}
	return paths
}

// onSomeRead reports whether path, below the root element, is a prefix of
// some read's element labels ("*" matches any label; a // step could
// reach anything).
func onSomeRead(path []string, reads xquery.Reads) bool {
	for _, r := range reads.Paths {
		if len(r.Steps) == 0 {
			return true // whole documents
		}
		i := 0
		for _, st := range r.Steps[1:] {
			if st.Descendant {
				return true
			}
			if i == len(path) || st.Attr || (st.Name != "*" && st.Name != path[i]) {
				break
			}
			i++
		}
		if i == len(path) {
			return true
		}
	}
	return false
}

// keepOf renders a program's scan projection ("*": whole documents).
func keepOf(p *Program) string {
	if p.pipe.hint == nil {
		return "*"
	}
	return p.pipe.hint.Keep.String()
}

// shipSource is a projSource that is also a Shipper: it decodes each
// document under the shipped projection, so returned nodes may be
// shells, and holds only the record of the document it decoded last, as
// a node's scan holds only its latest chunk. It flushes the pipeline
// before it decodes the next document.
type shipSource struct {
	*projSource
	held    []byte        // the record of the document decoded last
	root    *xmltree.Node // its root
	shipped int           // the scans ShipDocs served
	shells  int           // the shells runShipped was handed
}

func (s *shipSource) ShipDocs(name string, h *xquery.Hint, fn func(*xmltree.Document) error, pending Flusher) error {
	s.shipped++
	for _, r := range s.recs[name] {
		if err := pending.Flush(); err != nil {
			return err
		}
		d, err := storage.DecodeProjected(r.name, r.data, h.Keep)
		if err != nil {
			return err
		}
		s.held, s.root = r.data, d.Root
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

// runShipped streams a compiled program over src's stored records as a
// node shipping its answers does (shipSource), and requires the
// interpreter's result: a shell, while its record is held, must decode
// from its record range to the interpreter's node, and every other node
// must equal it as it is.
func runShipped(t *testing.T, src *memSource, query string, prog *Program, want xquery.Seq) *shipSource {
	t.Helper()
	ship := &shipSource{projSource: newProjSource(t, src)}
	var got xquery.Seq
	_, err := prog.Stream(ship, func(items xquery.Seq) error {
		for _, it := range items {
			n, ok := it.(*xmltree.Node)
			if !ok || !n.Partial() {
				got = append(got, it)
				continue
			}
			ship.shells++
			start, end, ok := n.RecordRange()
			if !ok || n.Root() != ship.root {
				t.Fatalf("%s: a shell of %s reaches the consumer after its record was dropped", query, n.Name)
			}
			roots, err := storage.DecodeBatch([][]byte{ship.held, ship.held[start:end]}, []int{-1, 0})
			if err != nil {
				t.Fatalf("%s: the record range of a shell of %s: %v", query, n.Name, err)
			}
			got = append(got, roots[1])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: shipped stream: %v", query, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s:\ninterp  (%d): %s\nshipped (%d): %s", query, len(want), seqString(want), len(got), seqString(got))
	}
	for i := range want {
		wn, wIsNode := want[i].(*xmltree.Node)
		gn, gIsNode := got[i].(*xmltree.Node)
		same := wIsNode == gIsNode && (wIsNode && wn.ID == gn.ID && xmltree.Equal(wn, gn) || !wIsNode && want[i] == got[i])
		if !same {
			t.Fatalf("%s: item %d: interpreter %s, shipped %s", query, i, xquery.ItemString(want[i]), xquery.ItemString(got[i]))
		}
	}
	return ship
}

// itemsSource builds the store-catalog shape the Figure 7 workloads query.
func itemsSource() *memSource {
	mk := func(i int, code, section, desc string, pics int) *xmltree.Document {
		xml := fmt.Sprintf(`<Item id="%d"><Code>%s</Code><Name>name-%s</Name><Description>%s</Description><Section>%s</Section>`,
			i, code, code, desc, section)
		if pics > 0 {
			xml += "<PictureList>"
			for p := 0; p < pics; p++ {
				xml += fmt.Sprintf("<Picture><Name>p%d</Name></Picture>", p)
			}
			xml += "</PictureList>"
		}
		if i%2 == 0 {
			xml += "<Characteristics>yes</Characteristics>"
		}
		xml += `</Item>`
		return xmltree.MustParseString(fmt.Sprintf("i%d", i), xml)
	}
	return newMemSource(xmltree.NewCollection("items",
		mk(1, "I1", "CD", "a good disc", 2),
		mk(2, "I2", "DVD", "a fine movie", 0),
		mk(3, "I3", "CD", "plain disc", 1),
		mk(4, "I4", "Book", "good reading", 0),
		mk(5, "I5", "Book", "an excellent story", 3),
		mk(6, "I6", "DVD", "excellent cut", 0),
	))
}

// sameSeq compares interpreter and compiled results. Nodes compare by
// pointer (both paths select from the same trees) except the synthetic
// #document wrapper, which each run allocates fresh.
func sameSeq(a, b xquery.Seq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, aIsNode := a[i].(*xmltree.Node)
		bn, bIsNode := b[i].(*xmltree.Node)
		if aIsNode != bIsNode {
			return false
		}
		if aIsNode {
			if an == bn {
				continue
			}
			if an.Name != bn.Name || an.Kind != bn.Kind || an.Text() != bn.Text() {
				return false
			}
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func seqString(s xquery.Seq) string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = xquery.ItemString(it)
	}
	return strings.Join(parts, " ")
}

// runBoth evaluates query through the interpreter and the compiled
// pipeline and requires identical results (or identical error presence).
// mustCompile pins queries that the compiled subset must cover natively.
func runBoth(t *testing.T, src *memSource, query string, mustCompile bool) {
	t.Helper()
	e, err := xquery.Parse(query)
	if err != nil {
		t.Fatalf("parse %s: %v", query, err)
	}
	prog, ok := Compile(e)
	if !ok {
		if mustCompile {
			t.Fatalf("Compile declined %s", query)
		}
		return
	}
	keepInReads(t, query, e, prog)
	want, wantErr := xquery.Eval(e, src)
	got, gotErr := prog.Run(src)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: interpreter err=%v, compiled err=%v", query, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error mismatch\ninterp:   %v\ncompiled: %v", query, wantErr, gotErr)
		}
		runProjected(t, src, query, prog, want, wantErr)
		return
	}
	if !sameSeq(want, got) {
		t.Fatalf("%s:\ninterp   (%d): %s\ncompiled (%d): %s", query, len(want), seqString(want), len(got), seqString(got))
	}
	// Stream must deliver the same items in the same order.
	var streamed xquery.Seq
	total, err := prog.Stream(src, func(items xquery.Seq) error {
		streamed = append(streamed, items...)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: Stream: %v", query, err)
	}
	if total != len(streamed) || !sameSeq(want, streamed) {
		t.Fatalf("%s: Stream mismatch: total=%d, items (%d): %s", query, total, len(streamed), seqString(streamed))
	}
	runProjected(t, src, query, prog, want, wantErr)
	runShipped(t, src, query, prog, want)
}

// TestDifferentialFixed pins the compiled subset on hand-picked queries:
// every Figure 7 workload shape plus the edge shapes the executor handles
// specially (positional predicates, wrapper escape, order-by, let
// bindings, fallback sub-expressions, atomization errors).
func TestDifferentialFixed(t *testing.T) {
	src := itemsSource()
	native := []string{
		// Figure 7 / workload shapes.
		`for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`,
		`for $i in collection("items")/Item where $i/Code = "I2" return $i`,
		`for $i in collection("items")/Item where exists($i/Characteristics) return $i/Code`,
		`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
		`for $i in collection("items")/Item where $i/Section = "Book" and contains($i/Description, "excellent") return $i/Name`,
		`count(for $i in collection("items")/Item where $i/Section = "CD" return $i)`,
		`count(for $i in collection("items")/Item where contains($i/Description, "good") return $i)`,
		`sum(for $i in collection("items")/Item return count($i/PictureList/Picture))`,
		`for $i in collection("items")/Item, $p in $i/PictureList/Picture return $p/Name`,
		// Bare paths, predicates, attributes, descendants.
		`collection("items")/Item/Code`,
		`collection("items")/Item[Section = "CD"]/Code`,
		`collection("items")/Item[Section = "DVD"]/@id`,
		`collection("items")/Item/PictureList/Picture[2]/Name`,
		`collection("items")/Item[PictureList]/Code`,
		`collection("items")//Picture/Name`,
		`collection("items")//*`,
		`collection("items")`,
		`collection("items")/Item/Section/text()`,
		`collection("items")/Item[not(PictureList)]/Code`,
		`collection("items")/Item[Section != "CD"]/Code`,
		// Comparisons both directions, numeric and string.
		`for $i in collection("items")/Item where $i/@id < 3 return $i/Code`,
		`for $i in collection("items")/Item where 3 <= $i/@id return $i/Code`,
		`for $i in collection("items")/Item where starts-with($i/Description, "a ") return $i/Code`,
		`for $i in collection("items")/Item where ends-with($i/Section, "D") return $i/Code`,
		`for $i in collection("items")/Item where empty($i/PictureList) return $i/Code`,
		`for $i in collection("items")/Item where $i/PictureList return $i/Code`,
		`for $i in collection("items")/Item where not($i/Section = "CD") return $i/Code`,
		// Order by, both directions, numeric and string keys, missing keys.
		`for $i in collection("items")/Item order by $i/Code descending return $i/Code`,
		`for $i in collection("items")/Item order by $i/@id descending return $i/Code`,
		`for $i in collection("items")/Item order by count($i/PictureList/Picture) return $i/Code`,
		`for $i in collection("items")/Item order by $i/Characteristics return $i/Code`,
		`for $i in collection("items")/Item order by $i/Section, $i/Code descending return $i/Code`,
		// Let bindings, literals, count projections.
		`for $i in collection("items")/Item let $c := $i/Code return $c`,
		`for $i in collection("items")/Item let $n := count($i/PictureList/Picture) return $n`,
		`for $i in collection("items")/Item return count($i/PictureList/Picture)`,
		`for $i in collection("items")/Item where $i/Section = "CD" return "hit"`,
		// Folds over streams.
		`count(collection("items")/Item)`,
		`exists(for $i in collection("items")/Item where $i/Section = "CD" return $i)`,
		`empty(for $i in collection("items")/Item where $i/Section = "Vinyl" return $i)`,
		`sum(for $i in collection("items")/Item return $i/@id)`,
		`avg(for $i in collection("items")/Item return $i/@id)`,
		`min(for $i in collection("items")/Item return $i/@id)`,
		`max(for $i in collection("items")/Item return $i/@id)`,
		// Empty-sequence edges.
		`for $i in collection("items")/Missing return $i`,
		`sum(for $i in collection("items")/Missing return $i)`,
		`avg(for $i in collection("items")/Missing return $i)`,
		`min(for $i in collection("items")/Missing return $i)`,
		`count(collection("items")/Item[Section = "Vinyl"])`,
	}
	for _, q := range native {
		t.Run(q, func(t *testing.T) { runBoth(t, src, q, true) })
	}
	// Shapes that exercise the per-tuple interpreter fallback inside a
	// compiled pipeline (still must produce interpreter-identical output).
	fallback := []string{
		`for $i in collection("items")/Item where count($i/PictureList/Picture) > 1 return $i/Code`,
		`for $i in collection("items")/Item where $i/Section = "CD" or $i/Section = "Book" return $i/Code`,
		`for $i in collection("items")/Item return exists($i/PictureList)`,
		`for $i in collection("items")/Item let $s := $i/Section where $s = "CD" return $i/Code`,
		`for $i in collection("items")/Item order by $i/@id return (for $p in $i/PictureList/Picture return $p/Name)`,
		// Aggregation over a non-numeric value must error identically.
		`sum(for $i in collection("items")/Item return $i/Section)`,
	}
	for _, q := range fallback {
		t.Run(q, func(t *testing.T) { runBoth(t, src, q, true) })
	}
}

// TestCompileProjection pins the projection Compile derives for the
// Figure 7 shapes, and the shapes that must read whole documents.
func TestCompileProjection(t *testing.T) {
	cases := []struct{ query, keep string }{
		{`for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`, "{Name*,Section*}"},
		{`for $i in collection("items")/Item where exists($i/Characteristics) return $i/Code`, "{Characteristics*,Code*}"},
		{`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`, "{Code*,Description*}"},
		{`count(for $i in collection("items")/Item where contains($i/Description, "good") return $i)`, "{Description*}"},
		{`count(for $i in collection("items")/Item where $i/Section = "CD" return $i/Code)`, "{Code,Section*}"},
		{`sum(for $i in collection("items")/Item return count($i/PictureList/Picture))`, "{PictureList{Picture}}"},
		{`for $i in collection("items")/Item, $p in $i/PictureList/Picture return $p/Name`, "{PictureList{Picture{Name*}}}"},
		{`collection("items")/Item[Section = "CD"]/PictureList/Picture[2]/Name`, "{PictureList{Picture{Name*}},Section*}"},
		{`for $i in collection("items")/Item order by $i/Code return $i/Name`, "{Code*,Name*}"},
		{`count(collection("items")/Item)`, "{}"},
		{`for $i in collection("s")/Store/Items/Item where $i/Section = "Book" return $i/Code`, "{Items{Item{Code*,Section*}}}"},
		// Whole documents: the value returned is the root, or a shape the
		// rules do not see through.
		{`for $i in collection("items")/Item where $i/Code = "I2" return $i`, "*"},
		{`collection("items")`, "*"},
		{`collection("items")//Picture/Name`, "*"},
		{`collection("items")/Item/*`, "*"},
		{`collection("items")/Item[Section = "DVD"]/@id`, "*"},
		{`collection("items")/Item/Section/text()`, "*"},
		{`for $i in collection("items")/Item let $c := $i/Code return $c`, "*"},
		{`for $i in collection("items")/Item where count($i/PictureList/Picture) > 1 return $i/Code`, "*"},
		{`for $i in collection("items")/Item return exists($i/PictureList)`, "*"},
	}
	for _, c := range cases {
		e, err := xquery.Parse(c.query)
		if err != nil {
			t.Fatalf("parse %s: %v", c.query, err)
		}
		prog, ok := Compile(e)
		if !ok {
			t.Fatalf("Compile declined %s", c.query)
		}
		if got := keepOf(prog); got != c.keep {
			t.Errorf("%s: projection %s, want %s", c.query, got, c.keep)
		}
	}
}

// TestCompileShippedProjection pins the projection a Shipper scans
// under: the return value shipped ("^") with the children the query
// reads below it, and none ("") where no node is returned to ship, an
// order by holds the tuples, or the return value is read whole anyway.
// The scan projection every other Source gets (keepOf) stays as
// TestCompileProjection pins it.
func TestCompileShippedProjection(t *testing.T) {
	cases := []struct{ query, ship string }{
		{`for $i in collection("items")/Item return $i`, "^{}"},
		{`for $i in collection("items")/Item where $i/Code = "I2" return $i`, "^{Code*}"},
		{`for $i in collection("items")/Item where $i/Section = "CD" return $i/PictureList/Picture`, "{PictureList{Picture^},Section*}"},
		{`for $i in collection("items")/Item, $p in $i/PictureList/Picture where $p/Name = "p1" return $i`, "^{PictureList{Picture{Name*}}}"},
		{`collection("items")/Item[Section = "CD"]/Code`, "{Code^,Section*}"},
		{`for $i in collection("items")/Item where $i/Code = "I2" return $i/Code`, ""},
		{`for $i in collection("items")/Item order by $i/Code return $i`, ""},
		{`count(for $i in collection("items")/Item return $i)`, ""},
		{`for $i in collection("items")/Item return count($i/PictureList/Picture)`, ""},
		{`for $i in collection("items")/Item return $i/Code/text()`, ""},
	}
	for _, c := range cases {
		e, err := xquery.Parse(c.query)
		if err != nil {
			t.Fatalf("parse %s: %v", c.query, err)
		}
		prog, ok := Compile(e)
		if !ok {
			t.Fatalf("Compile declined %s", c.query)
		}
		got := ""
		if h := prog.pipe.shipHint; h != nil {
			got = h.Keep.String()
		}
		if got != c.ship {
			t.Errorf("%s: shipped projection %q, want %q", c.query, got, c.ship)
		}
	}
}

// TestCompileDeclines pins top-level shapes outside the compiled subset:
// the engine must fall back to the interpreter for these.
func TestCompileDeclines(t *testing.T) {
	declined := []string{
		`"hello"`,
		`doc("i1")/Item/Code`,
		`count(doc("i1")/Item)`,
		`for $i in doc("i1")/Item return $i`,
		`count(collection("items")/Item) + 1`,
		`for $i in collection("items")/Item for $i in $i/PictureList/Picture return $i`, // shadowing
	}
	for _, q := range declined {
		e, err := xquery.Parse(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		if _, ok := Compile(e); ok {
			t.Errorf("Compile accepted %s; want decline", q)
		}
	}
}

// TestStreamChunksBounded verifies the executor yields bounded frames: a
// scan over many documents with multiple items each must never hand the
// consumer a chunk much larger than yieldChunk, no matter the total.
func TestStreamChunksBounded(t *testing.T) {
	var docs []*xmltree.Document
	for i := 0; i < 400; i++ {
		docs = append(docs, xmltree.MustParseString(fmt.Sprintf("d%d", i),
			fmt.Sprintf("<r><v>%d</v><v>%d</v><v>%d</v></r>", i, i+1, i+2)))
	}
	src := newMemSource(xmltree.NewCollection("c", docs...))
	e, err := xquery.Parse(`collection("c")/r/v`)
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := Compile(e)
	if !ok {
		t.Fatal("Compile declined")
	}
	chunks, total := 0, 0
	n, err := prog.Stream(src, func(items xquery.Seq) error {
		if len(items) == 0 {
			t.Fatal("empty chunk yielded")
		}
		if len(items) > yieldChunk+8 {
			t.Fatalf("chunk of %d items exceeds bound", len(items))
		}
		chunks++
		total += len(items)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1200 || total != 1200 {
		t.Fatalf("streamed %d/%d items, want 1200", n, total)
	}
	if chunks < 4 {
		t.Fatalf("result arrived in %d chunks; want several bounded frames", chunks)
	}
}

// TestExistsStopsScan verifies the decider folds cancel the collection
// scan at the first witness instead of visiting every document.
func TestExistsStopsScan(t *testing.T) {
	var docs []*xmltree.Document
	for i := 0; i < 100; i++ {
		docs = append(docs, xmltree.MustParseString(fmt.Sprintf("d%d", i),
			fmt.Sprintf("<r><v>%d</v></r>", i)))
	}
	src := newMemSource(xmltree.NewCollection("c", docs...))
	e, err := xquery.Parse(`exists(for $r in collection("c")/r where $r/v = 3 return $r)`)
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := Compile(e)
	if !ok {
		t.Fatal("Compile declined")
	}
	res, err := prog.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != true {
		t.Fatalf("got %v", res)
	}
	// Batching may buffer up to a full tuple batch before the fold sees
	// the witness, but the scan must stop well short of all 100 docs.
	if src.scanned > 2+tupleBatchSize/4 {
		t.Fatalf("scanned %d docs; want early stop", src.scanned)
	}
}

// --- randomized differential testing ---

var elemNames = []string{"a", "b", "c", "d"}
var leafValues = []string{"1", "2", "10", "-3", "2.5", "x", "y", "good stuff", "", "CD"}

// splitValues are leaf values stored as two adjacent text nodes, split
// inside a word or inside a multi-byte UTF-8 character. The parser never
// builds them; string terms must match across the split.
var splitValues = [][2]string{{"de", "fective"}, {"caf\xc3", "\xa9"}, {"goo", "d stuff"}}

// needles adds to leafValues strings that span text nodes: across the
// splitValues splits, and across adjacent leaves such as <a>x</a><b>y</b>.
var needles = append([]string{"defective", "efe", "é", "fé", "od s", "xy", "1x", "CDg"}, leafValues...)

// randDoc builds the document tree directly rather than parsing it, so it
// can hold mixed content and split text the parser never produces.
func randDoc(r *rand.Rand, name string) *xmltree.Document {
	root := xmltree.NewElement("r")
	if r.Intn(2) == 0 {
		root.Append(xmltree.NewAttr("id", fmt.Sprint(r.Intn(20))))
	}
	randChildren(r, root, 0)
	return xmltree.NewDocument(name, root)
}

// randChildren appends up to three random elements to parent, some of
// them after a text node (mixed content).
func randChildren(r *rand.Rand, parent *xmltree.Node, depth int) {
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		if v := leafValues[r.Intn(len(leafValues))]; v != "" && r.Intn(6) == 0 {
			parent.Append(xmltree.NewText(v))
		}
		el := xmltree.NewElement(elemNames[r.Intn(len(elemNames))])
		if r.Intn(4) == 0 {
			el.Append(xmltree.NewAttr("id", fmt.Sprint(r.Intn(20))))
		}
		switch {
		case depth < 2 && r.Intn(3) == 0:
			randChildren(r, el, depth+1)
		case r.Intn(5) == 0:
			sv := splitValues[r.Intn(len(splitValues))]
			el.Append(xmltree.NewText(sv[0]))
			el.Append(xmltree.NewText(sv[1]))
		default:
			if v := leafValues[r.Intn(len(leafValues))]; v != "" {
				el.Append(xmltree.NewText(v))
			}
		}
		parent.Append(el)
	}
}

func randLit(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return fmt.Sprintf("%d", r.Intn(12)-2)
	}
	return fmt.Sprintf("%q", leafValues[r.Intn(len(leafValues))])
}

func randOp(r *rand.Rand) string {
	return []string{"=", "!=", "<", "<=", ">", ">="}[r.Intn(6)]
}

func randStepName(r *rand.Rand) string {
	if r.Intn(8) == 0 {
		return "*"
	}
	return elemNames[r.Intn(len(elemNames))]
}

// randRel builds a short relative path like a/b or a//b/@id. The first
// step is always a concrete name: the parser rejects a leading *.
func randRel(r *rand.Rand) string {
	parts := []string{elemNames[r.Intn(len(elemNames))]}
	if r.Intn(2) == 0 {
		sep := "/"
		if r.Intn(4) == 0 {
			sep = "//"
		}
		next := randStepName(r)
		if r.Intn(6) == 0 {
			next = "@id"
		}
		parts = append(parts, sep+next)
	}
	return strings.Join(parts, "")
}

// randStrTerm builds a string term over base with a needle that may span
// text nodes.
func randStrTerm(r *rand.Rand, base string) string {
	fn := []string{"contains", "starts-with", "ends-with"}[r.Intn(3)]
	return fmt.Sprintf("%s(%s, %q)", fn, base, needles[r.Intn(len(needles))])
}

// randPath returns a path and, when it carries a string-term predicate,
// a probe: the path whose nodes that term tests.
func randPath(r *rand.Rand) (path, probe string) {
	p := `collection("c")`
	if r.Intn(8) == 0 {
		return p, "" // bare collection: wrapper escape
	}
	if r.Intn(4) == 0 {
		p += "//" + randStepName(r)
	} else {
		p += "/r"
	}
	nsteps := r.Intn(2)
	for i := 0; i < nsteps; i++ {
		p += "/" + randStepName(r)
	}
	if r.Intn(3) == 0 {
		switch r.Intn(5) {
		case 0:
			p += fmt.Sprintf("[%d]", r.Intn(3)+1)
		case 1:
			p += fmt.Sprintf("[%s %s %s]", randRel(r), randOp(r), randLit(r))
		case 2:
			p += fmt.Sprintf("[%s]", randRel(r))
		case 3:
			base := "."
			probe = p
			if r.Intn(2) == 0 {
				base = randRel(r)
				probe = p + "/" + base
			}
			p += "[" + randStrTerm(r, base) + "]"
		default:
			p += fmt.Sprintf("[not(%s)]", randRel(r))
		}
	}
	return p, probe
}

// randWhereTerm returns a where-conjunct over $v and, for a string term,
// the path whose nodes it tests.
func randWhereTerm(r *rand.Rand, v string) (term, strBase string) {
	switch r.Intn(10) {
	case 0:
		return fmt.Sprintf("$%s/%s %s %s", v, randRel(r), randOp(r), randLit(r)), ""
	case 1:
		return fmt.Sprintf("%s %s $%s/%s", randLit(r), randOp(r), v, randRel(r)), ""
	case 2, 3, 4, 5: // string terms, the most frequent: few bases select a subtree
		strBase = "$" + v
		if r.Intn(2) == 0 {
			strBase += "/" + randRel(r)
		}
		term = randStrTerm(r, strBase)
		if r.Intn(4) == 0 {
			term = "not(" + term + ")"
		}
		return term, strBase
	case 6:
		return fmt.Sprintf("exists($%s/%s)", v, randRel(r)), ""
	case 7:
		return fmt.Sprintf("empty($%s/%s)", v, randRel(r)), ""
	case 8:
		return fmt.Sprintf("$%s/%s", v, randRel(r)), ""
	default:
		// Interpreter-fallback shape: count comparison.
		return fmt.Sprintf("count($%s/%s) %s %d", v, randRel(r), randOp(r), r.Intn(3)), ""
	}
}

func randReturn(r *rand.Rand, v string) string {
	switch r.Intn(5) {
	case 0:
		return "$" + v
	case 1:
		return fmt.Sprintf("$%s/%s", v, randRel(r))
	case 2:
		return fmt.Sprintf("count($%s/%s)", v, randRel(r))
	case 3:
		return randLit(r)
	default:
		return fmt.Sprintf("$%s/%s/text()", v, randStepName(r))
	}
}

// randQuery returns a query and the probes of its string terms: for
// each, a query whose result is the nodes that term tests.
func randQuery(r *rand.Rand) (string, []string) {
	switch r.Intn(4) {
	case 0: // bare path
		p, probe := randPath(r)
		return p, probesOf(probe)
	case 1: // fold over a path or FLWOR
		fold := []string{"count", "exists", "empty", "sum", "min", "max", "avg"}[r.Intn(7)]
		if r.Intn(2) == 0 {
			p, probe := randPath(r)
			return fmt.Sprintf("%s(%s)", fold, p), probesOf(probe)
		}
		q, probes := randFLWOR(r)
		return fmt.Sprintf("%s(%s)", fold, q), probes
	default:
		return randFLWOR(r)
	}
}

func probesOf(probe string) []string {
	if probe == "" {
		return nil
	}
	return []string{probe}
}

func randFLWOR(r *rand.Rand) (string, []string) {
	var sb strings.Builder
	p, probe := randPath(r)
	probes := probesOf(probe)
	fmt.Fprintf(&sb, "for $x in %s", p)
	vars := []string{"x"}
	if r.Intn(4) == 0 {
		fmt.Fprintf(&sb, ", $y in $x/%s", randRel(r))
		vars = append(vars, "y")
	}
	// A where-term's probe is the for clauses returning its base.
	forClauses := sb.String()
	if r.Intn(5) == 0 {
		fmt.Fprintf(&sb, " let $l := $x/%s", randRel(r))
	}
	if r.Intn(2) == 0 {
		for i, n := 0, 1+r.Intn(3)/2; i < n; i++ {
			term, strBase := randWhereTerm(r, vars[r.Intn(len(vars))])
			if i == 0 {
				sb.WriteString(" where " + term)
			} else {
				sb.WriteString(" and " + term)
			}
			if strBase != "" {
				probes = append(probes, forClauses+" return "+strBase)
			}
		}
	}
	if r.Intn(3) == 0 {
		v := vars[r.Intn(len(vars))]
		desc := ""
		if r.Intn(2) == 0 {
			desc = " descending"
		}
		fmt.Fprintf(&sb, " order by $%s/%s%s", v, randRel(r), desc)
	}
	fmt.Fprintf(&sb, " return %s", randReturn(r, vars[r.Intn(len(vars))]))
	return sb.String(), probes
}

// subtreeStringTerms counts the probes that select a node with a subtree
// below it (an element child, or several children): a string term whose
// base is such a node must stream over more than one text node.
func subtreeStringTerms(src *memSource, probes []string) int {
	count := 0
	for _, probe := range probes {
		e, err := xquery.Parse(probe)
		if err != nil {
			continue
		}
		items, err := xquery.Eval(e, src)
		if err != nil {
			continue
		}
		for _, it := range items {
			if n, ok := it.(*xmltree.Node); ok && (len(n.Children) > 1 || len(n.Children) == 1 && n.Children[0].Kind == xmltree.ElementNode) {
				count++
				break
			}
		}
	}
	return count
}

// TestDifferentialRandom fuzzes generated FLWOR/path queries over
// generated documents through both the compiled pipeline and the
// interpreter; results (and errors) must be identical. This is the
// executor's semantic safety net — the interpreter is the oracle. Every
// compiled query also runs over stored records decoded under its
// projection, which must not change the result either.
func TestDifferentialRandom(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	compiled, projected, shipped, shells, subtreeTerms := 0, 0, 0, 0, 0
	for seed := 0; seed < iters; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		var docs []*xmltree.Document
		for i, n := 0, 2+r.Intn(5); i < n; i++ {
			docs = append(docs, randDoc(r, fmt.Sprintf("d%d", i)))
		}
		src := newMemSource(xmltree.NewCollection("c", docs...))
		query, probes := randQuery(r)
		e, err := xquery.Parse(query)
		if err != nil {
			t.Fatalf("seed %d: generated unparsable query %s: %v", seed, query, err)
		}
		prog, ok := Compile(e)
		if !ok {
			continue
		}
		compiled++
		keepInReads(t, fmt.Sprintf("seed %d: %s", seed, query), e, prog)
		subtreeTerms += subtreeStringTerms(src, probes)
		want, wantErr := xquery.Eval(e, src)
		got, gotErr := prog.Run(src)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("seed %d: %s\ninterp err=%v compiled err=%v", seed, query, wantErr, gotErr)
		}
		if wantErr == nil && !sameSeq(want, got) {
			t.Fatalf("seed %d: %s\ninterp   (%d): %s\ncompiled (%d): %s",
				seed, query, len(want), seqString(want), len(got), seqString(got))
		}
		if runProjected(t, src, fmt.Sprintf("seed %d: %s", seed, query), prog, want, wantErr).projected > 0 {
			projected++
		}
		if wantErr == nil {
			ship := runShipped(t, src, fmt.Sprintf("seed %d: %s", seed, query), prog, want)
			if ship.shipped > 0 {
				shipped++
			}
			shells += ship.shells
		}
	}
	// The generator must keep most shapes inside the compiled subset, and
	// enough of those projected, or this test stops testing the executor
	// and the projection.
	if compiled < iters/2 {
		t.Fatalf("only %d/%d generated queries compiled natively", compiled, iters)
	}
	if projected*10 < compiled {
		t.Fatalf("only %d/%d compiled queries projected", projected, compiled)
	}
	if shipped*10 < compiled || shells == 0 {
		t.Fatalf("only %d/%d compiled queries shipped nodes, %d of them shells", shipped, compiled, shells)
	}
	// String terms over subtrees are the case the text-node matcher
	// exists for; leaves alone would not test it.
	if subtreeTerms*40 < iters {
		t.Fatalf("only %d/%d generated queries apply a string term to a subtree", subtreeTerms, iters)
	}
	t.Logf("%d/%d queries compiled, %d of them projected, %d shipped (%d shells), %d string terms over subtrees",
		compiled, iters, projected, shipped, shells, subtreeTerms)
}

// TestAllocsScanFilterProject is the allocation-regression gate for the
// hot scan → filter → project path: steady-state execution must not
// allocate per document (scratch buffers are reused; only result growth
// allocates, and this query rejects every document).
func TestAllocsScanFilterProject(t *testing.T) {
	const nDocs = 512
	var docs []*xmltree.Document
	for i := 0; i < nDocs; i++ {
		docs = append(docs, xmltree.MustParseString(fmt.Sprintf("d%d", i),
			fmt.Sprintf(`<Item><Code>I%d</Code><Section>CD</Section></Item>`, i)))
	}
	src := newMemSource(xmltree.NewCollection("items", docs...))
	e, err := xquery.Parse(`for $i in collection("items")/Item where $i/Section = "Vinyl" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := Compile(e)
	if !ok {
		t.Fatal("Compile declined")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := prog.Run(src); err != nil {
			t.Fatal(err)
		}
	})
	perDoc := allocs / nDocs
	// One executor + scratch set per run amortizes over 512 docs; the
	// per-document cost must be far below one allocation.
	if perDoc > 0.25 {
		t.Fatalf("scan→filter→project allocates %.2f allocs/doc (%.0f per run); regression over the pinned budget", perDoc, allocs)
	}
}
