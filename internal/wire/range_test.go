package wire

// Coverage for nodes shipped from their stored records: a node the engine
// decoded whole leaves as a copy of its record's head and byte range, or
// as a range that borrows an earlier item's table (ItemRange), and must
// decode to what encoding its tree gives.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"partix/internal/engine"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// randomItem builds an Item document with an id attribute, text leaves
// and, at random, a PictureList whose children encode to well over the
// 1 KiB from which an element carries an extent, so ranges start at
// nodes with and without one.
func randomItem(r *rand.Rand, i int) *xmltree.Document {
	item := xmltree.NewElement("Item", xmltree.NewAttr("id", fmt.Sprint(i)),
		xmltree.NewElement("Code", xmltree.NewText(fmt.Sprintf("I%03d", i))))
	for _, name := range []string{"Name", "Section", "Description", "Note"} {
		if r.Intn(3) > 0 {
			item.Append(xmltree.NewElement(name, xmltree.NewText(strings.Repeat(name[:1], r.Intn(40)))))
		}
	}
	if r.Intn(2) == 0 {
		pics := xmltree.NewElement("PictureList")
		for k := 20 + r.Intn(40); k > 0; k-- {
			pics.Append(xmltree.NewElement("Picture", xmltree.NewAttr("n", fmt.Sprint(k)),
				xmltree.NewElement("Url", xmltree.NewText(strings.Repeat("u", 30+r.Intn(30))))))
		}
		item.Append(pics)
	}
	return xmltree.NewDocument(fmt.Sprintf("d%03d", i), item)
}

// storedDB opens a node store holding n random Items in collection "c".
func storedDB(t *testing.T, r *rand.Rand, n int) *engine.DB {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.Store().CreateCollection("c")
	for i := 0; i < n; i++ {
		if err := db.PutDocument("c", randomItem(r, i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// v1DB opens a copy of the engine's store fixture of version 1 records
// (collection "items").
func v1DB(t *testing.T) *engine.DB {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "v1store", "items.db"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "items.db")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(path, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// frameKinds counts a frame's node items by form, and the shells among
// the nodes they were written from.
type frameKinds struct{ encoded, copied, ranges, shells int }

// streamFramed runs q on db as a node's stream does, cutting a frame
// every batch items, and checks every frame's decoded items against the
// query's answer over whole trees (a run without Origins, so without
// shells): a node must decode xmltree.Equal, IDs included, to what
// encoding the whole tree (Encoder.Append) decodes to. It counts the
// frames' node items by form: a copy is an ItemNode whose bytes differ
// from what encoding the whole tree writes.
func streamFramed(t *testing.T, db *engine.DB, q string, batch int) frameKinds {
	t.Helper()
	e, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := db.QueryExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	var kinds frameKinds
	w := itemWriter{origins: new(engine.Origins)}
	var pending xquery.Seq // the whole-tree answers of the items w holds
	frame := func() {
		items, err := parseItems(w.count, w.payload)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := DecodeSeq(items)
		if err != nil {
			t.Fatalf("%s: decoding a frame: %v", q, err)
		}
		for i, it := range pending {
			n, ok := it.(*xmltree.Node)
			if !ok {
				continue
			}
			enc, err := EncodeSeq(xquery.Seq{n})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case items[i].Kind == ItemRange:
				kinds.ranges++
			case string(enc[0].Node) == string(items[i].Node):
				kinds.encoded++
			default:
				kinds.copied++
			}
			ref, err := DecodeSeq(enc)
			if err != nil {
				t.Fatal(err)
			}
			want := ref[0].(*xmltree.Node)
			if g, _ := got[i].(*xmltree.Node); g == nil || !xmltree.Equal(g, want) || !sameIDs(g, want) {
				t.Fatalf("%s: an item decodes to %s, encoding its tree gives %s", q, nodeText(g), xmltree.NodeString(want))
			}
		}
		pending = pending[:0]
		w.reset()
	}
	streamed := 0
	if _, err := db.StreamQueryExpr(e, w.origins, func(items xquery.Seq) error {
		for _, it := range items {
			if err := w.add(it); err != nil {
				return err
			}
			if streamed == len(answer) {
				t.Fatalf("%s: streams more than the %d items of its answer", q, len(answer))
			}
			if n, ok := it.(*xmltree.Node); ok && n.Partial() {
				kinds.shells++
			}
			pending = append(pending, answer[streamed])
			if streamed++; w.count == batch {
				frame()
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	frame()
	if streamed != len(answer) {
		t.Fatalf("%s: streamed %d items, its answer has %d", q, streamed, len(answer))
	}
	return kinds
}

func nodeText(n *xmltree.Node) string {
	if n == nil {
		return "no node"
	}
	return xmltree.NodeString(n)
}

// sameIDs reports whether two equal trees carry the same node IDs.
func sameIDs(a, b *xmltree.Node) bool {
	if a.ID != b.ID || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameIDs(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Every node a stream ships from its record decodes to what encoding its
// whole tree gives: whole Items and subtrees (with and without an
// extent), shells, attributes and text nodes, from version 2 and version
// 1 records, at random frame sizes; and over a scan of more than one
// chunk whose output is framed only after later chunks were read into
// the buffer the earlier ones occupied, whose nodes must then not be
// read from it. A scan returning shells ships every one of them from its
// record, in every chunk: the pipeline hands them on before the scan
// drops their chunk.
func TestStoredNodesShipAsTheirRecordBytes(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	db := storedDB(t, r, 150) // more than two 64-document chunks
	queries := []string{
		`for $i in collection("c")/Item return $i`,
		`for $i in collection("c")/Item return ($i/PictureList, $i/Code, $i/@id)`,
		`for $i in collection("c")/Item return $i/PictureList/Picture`,
		`for $i in collection("c")/Item return $i/Code/text()`,
		`for $i in collection("c")/Item where $i/Code = "I007" return ($i, $i/Name, $i/PictureList)`,
		`for $i in collection("c")/Item where $i/Code = "I149" return ($i/PictureList, $i)`,
		`for $i in collection("c")/Item order by $i/Code descending return $i`,
		`for $i in collection("c")/Item return <r>{$i/Code}</r>`,
	}
	var total frameKinds
	for _, q := range queries {
		for _, batch := range []int{1, 3, 1 + r.Intn(300)} {
			k := streamFramed(t, db, q, batch)
			total.encoded += k.encoded
			total.copied += k.copied
			total.ranges += k.ranges
			total.shells += k.shells
		}
	}
	for _, q := range []string{
		`for $i in collection("c")/Item return $i`,
		`for $i in collection("c")/Item where exists($i/Name) return $i`,
		`for $i in collection("c")/Item where $i/Code != "I007" return $i/PictureList`,
	} {
		for _, batch := range []int{1, 7, 1000} {
			// A shell cannot be encoded from its tree: a stream that
			// frames one after losing its record fails.
			if k := streamFramed(t, db, q, batch); k.shells == 0 || k.shells != k.encoded+k.copied+k.ranges {
				t.Fatalf("%s, %d items a frame: node items %+v, want every one a shell", q, batch, k)
			}
		}
	}
	v1 := v1DB(t)
	const q1 = `for $i in collection("items")/Item where $i/Code = "I2" return ($i/Description, $i, $i/Code, $i/Description/text(), $i/@id)`
	if k := streamFramed(t, v1, q1, 100); k.copied+k.encoded == 0 || k.ranges == 0 {
		t.Errorf("%s over version 1 records: %+v, want a copy and ranges", q1, k)
	}
	t.Logf("node items: %+v", total)
	if total.copied == 0 || total.ranges == 0 || total.encoded == 0 || total.shells == 0 {
		t.Fatalf("node items %+v: want every form exercised", total)
	}
}

// The cost class of shipping what a query keeps: framing k stored Items
// costs the same allocations per frame whether each Item holds 10 or
// 1,000 Pictures, and no Item is encoded from its tree (Encoder.Append):
// the first one of a frame copies its record's head and bytes, every
// later one is a range. Encoding each Item from its tree made the frame
// walk every Picture.
func TestFramingStoredItemsCostsPerFrame(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const k = 8
	allocs := map[int]float64{}
	for _, pictures := range []int{10, 1000} {
		store := xmltree.NewElement("Store")
		items := xmltree.NewElement("Items")
		store.Append(items)
		for i := 0; i < k; i++ {
			pics := xmltree.NewElement("PictureList")
			for p := 0; p < pictures; p++ {
				pics.Append(xmltree.NewElement("Picture", xmltree.NewText("http://example.org/p.jpg")))
			}
			items.Append(xmltree.NewElement("Item", xmltree.NewElement("Code", xmltree.NewText(fmt.Sprint(i))), pics))
		}
		db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		db.Store().CreateCollection("s")
		if err := db.PutDocument("s", xmltree.NewDocument("store", store)); err != nil {
			t.Fatal(err)
		}
		e, err := xquery.Parse(`for $i in collection("s")/Store/Items/Item return $i`)
		if err != nil {
			t.Fatal(err)
		}
		w := itemWriter{origins: new(engine.Origins)}
		var seq xquery.Seq
		if _, err := db.StreamQueryExpr(e, w.origins, func(items xquery.Seq) error {
			seq = append(seq, items...)
			for _, it := range items {
				if err := w.add(it); err != nil {
					return err
				}
			}
			// frame the batch while the scan's records are held
			frame := func() {
				w.reset()
				for _, it := range seq {
					if err := w.add(it); err != nil {
						t.Fatal(err)
					}
				}
			}
			allocs[pictures] = testing.AllocsPerRun(5, frame)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seq) != k {
			t.Fatalf("%d Items streamed, want %d", len(seq), k)
		}
		parsed, err := parseItems(w.count, w.payload)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range parsed {
			want := ItemRange
			if i == 0 {
				want = ItemNode
			}
			if it.Kind != want {
				t.Fatalf("%d Pictures: item %d has kind %d, want %d", pictures, i, it.Kind, want)
			}
		}
		whole, err := db.QueryExpr(e)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := EncodeSeq(whole[:1]); string(enc[0].Node) == string(parsed[0].Node) {
			t.Fatalf("%d Pictures: the first Item was encoded from its tree", pictures)
		}
	}
	t.Logf("allocations per frame of %d Items: %v (by Pictures per Item)", k, allocs)
	if allocs[10] != allocs[1000] {
		t.Fatalf("framing %d Items takes %.0f allocations at 10 Pictures each, %.0f at 1,000: want the same",
			k, allocs[10], allocs[1000])
	}
}

// Of the ItemRange seeds, the valid frame and the one under a version 1
// table decode, the range to its Code element; every other is refused.
func TestRangeItemsBorrowOnlyAnEarlierTable(t *testing.T) {
	for i, seed := range rangeSeeds(t) {
		items, err := parseItems(seed.count, seed.payload)
		var seq xquery.Seq
		if err == nil {
			seq, err = DecodeSeq(items)
		}
		valid := i == 0 || i == 5
		if valid != (err == nil) {
			t.Fatalf("seed %d: error %v, want valid=%v", i, err, valid)
		}
		if valid {
			if n, _ := seq[1].(*xmltree.Node); n == nil || xmltree.NodeString(n) != "<Code>I7</Code>" {
				t.Fatalf("seed %d: the range decodes to %v", i, seq[1])
			}
		}
	}
}

// The cost class of shells: a node streaming whole Items it filters on
// one child builds each Item as a shell holding that child, so the bytes
// its decode allocates per returned Item are the same whether an Item
// has 3 or 30 other leaf children (none large enough to carry an
// extent). Building the Items whole made them grow with the leaves. The
// decode's bytes are read from the allocation profile, attributed to the
// node's scan: the client decoding the same frames allocates the whole
// Items.
func TestShippedSubtreesAreNotBuilt(t *testing.T) {
	const q = `for $i in collection("c")/Items/Item where $i/Section = "CD" return $i`
	const items, runs = 32, 10
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	perItem := map[int]float64{}
	for _, leaves := range []int{3, 30} {
		root := xmltree.NewElement("Items")
		for i := 0; i < items; i++ {
			item := xmltree.NewElement("Item", xmltree.NewAttr("id", fmt.Sprint(i)),
				xmltree.NewElement("Section", xmltree.NewText([]string{"CD", "DVD"}[i%2])))
			for l := 0; l < leaves; l++ {
				item.Append(xmltree.NewElement("Note", xmltree.NewText(strings.Repeat("n", 400))))
			}
			root.Append(item)
		}
		db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		db.Store().CreateCollection("c")
		if err := db.PutDocument("c", xmltree.NewDocument("store", root)); err != nil {
			t.Fatal(err)
		}
		_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
		c := dialStream(t, addr, ClientOptions{})
		if got := mustQuery(t, c, q); len(got) != items/2 {
			t.Fatalf("%d leaves: %d Items returned, want %d", leaves, len(got), items/2)
		} else if n := got[0].(*xmltree.Node); len(n.Children) != 2+leaves {
			t.Fatalf("%d leaves: an Item arrives with %d children, want %d", leaves, len(n.Children), 2+leaves)
		}
		before := scanDecodeBytes()
		for r := 0; r < runs; r++ {
			mustQuery(t, c, q)
		}
		perItem[leaves] = float64(scanDecodeBytes()-before) / (runs * items / 2)
	}
	t.Logf("node-side decode bytes per returned Item: %.0f at 3 leaves, %.0f at 30", perItem[3], perItem[30])
	if perItem[30] > perItem[3] {
		t.Fatalf("decoding an Item to ship costs %.0f bytes at 30 leaves, %.0f at 3: want no more", perItem[30], perItem[3])
	}
}

// scanDecodeBytes sums the bytes the allocation profile attributes to
// storage's decode under an engine scan; runtime.MemProfileRate must be 1
// while they are allocated.
func scanDecodeBytes() int64 {
	runtime.GC() // publishes the profile up to here
	var recs []runtime.MemProfileRecord
	for n := 256; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if got, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:got]
			break
		}
	}
	var total int64
	for _, r := range recs {
		scan, decode := false, false
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			scan = scan || strings.HasSuffix(f.Function, "engine.(*DB).scanChunks")
			decode = decode || strings.HasSuffix(f.Function, "storage.decodeRecords")
			if !more {
				break
			}
		}
		if scan && decode {
			total += r.AllocBytes
		}
	}
	return total
}
