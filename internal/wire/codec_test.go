package wire

// Coverage for the query frame codec: a frame's items travel as one
// payload (Frame.Count, Frame.Payload), written by one per-stream encoder,
// checked on arrival and built into one slab, so its cost is per frame,
// not per item.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/toxgene"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// storeItems returns the first n Item elements of a generated store
// document: the whole elements hybrid queries ship. Their name tables
// differ from item to item where their optional children do.
func storeItems(t *testing.T, n int) xquery.Seq {
	t.Helper()
	root := toxgene.GenerateStore(toxgene.StoreConfig{Items: n, Seed: 1}).Docs[0].Root
	var items xquery.Seq
	root.Walk(func(e *xmltree.Node) bool {
		if e.Kind == xmltree.ElementNode && e.Name == "Item" {
			items = append(items, e)
			return false
		}
		return true
	})
	if len(items) < n {
		t.Fatalf("store holds %d items, want %d", len(items), n)
	}
	return items[:n]
}

// TestFrameCodecAllocsPerFrame pins both ends of the query frame codec at
// a constant number of allocations per frame, whatever its item count:
// the node appends every item into one reused payload through one record
// encoder, and the client parses the payload once, checks every node item
// at once and, asked for a node, builds them all into one slab. Both
// include gob, on a long-lived encoder and decoder as a connection has.
// When each item was encoded, shipped and decoded on its own, a frame of
// Item elements cost ≈6 allocations per item to encode and ≈9 to decode
// (61 and 1,216 to encode 10 and 200; 97 and 1,807 to decode them). The
// collector is off while counting: a cycle set off by a multi-MB frame
// allocates objects of its own.
func TestFrameCodecAllocsPerFrame(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5 // AllocsPerRun adds one warm-up run
	enc, dec := map[int]float64{}, map[int]float64{}
	for _, n := range []int{10, 200} {
		items := storeItems(t, n)
		var w itemWriter
		var stream bytes.Buffer
		genc := gob.NewEncoder(&stream)
		encodeFrame := func() {
			w.reset()
			for _, it := range items {
				if err := w.add(it); err != nil {
					t.Fatal(err)
				}
			}
			if err := genc.Encode(&Frame{Kind: FrameItems, Count: w.count, Payload: w.payload}); err != nil {
				t.Fatal(err)
			}
		}
		encodeFrame() // grows the payload and sends gob's type descriptors
		enc[n] = testing.AllocsPerRun(runs, encodeFrame)

		gdec := gob.NewDecoder(newLimitReader(&stream, 0))
		decodeFrame := func() {
			var f Frame
			if err := gdec.Decode(&f); err != nil {
				t.Fatal(err)
			}
			wi, err := parseItems(f.Count, f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := DecodeSeq(wi)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq) != n {
				t.Fatalf("decoded %d items, want %d", len(seq), n)
			}
			if _, ok := xquery.NodeOf(seq[0]); !ok { // builds the frame's trees
				t.Fatal("a frame of Items decodes to no node")
			}
		}
		decodeFrame() // reads gob's type descriptors
		dec[n] = testing.AllocsPerRun(runs, decodeFrame)
	}
	t.Logf("allocations per frame: encode %v, decode %v (by item count)", enc, dec)
	if enc[200] != enc[10] || enc[10] > 4 {
		t.Errorf("encoding a frame of 10 items takes %.0f allocations, 200 take %.0f: want the same, at most 4",
			enc[10], enc[200])
	}
	if dec[200] != dec[10] || dec[10] > 24 {
		t.Errorf("decoding a frame of 10 items takes %.0f allocations, 200 take %.0f: want the same, at most 24",
			dec[10], dec[200])
	}
}

// mixedSeq holds every item kind, with values that stress the payload
// form: empty and escaped strings, special floats, both booleans.
func mixedSeq(t *testing.T) xquery.Seq {
	seq := xquery.Seq{"", "a < b & \"c\"", math.Inf(-1), math.NaN(), math.Copysign(0, -1), 42.5, true, false}
	for _, it := range storeItems(t, 3) {
		seq = append(seq, it)
	}
	return append(seq, xmltree.MustParseString("x", `<p a="1"><q>t &lt; &amp;</q><b/></p>`).Root, "tail")
}

// EncodeSeq and DecodeSeq — the stream's own codec — round-trip every
// item kind, and a decoded sequence re-encodes to the same items.
func TestFramePayloadRoundTrip(t *testing.T) {
	seq := mixedSeq(t)
	items, err := EncodeSeq(seq)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSeq(items)
	if err != nil {
		t.Fatal(err)
	}
	want, got := fingerprint(t, seq), fingerprint(t, back)
	if len(got) != len(want) {
		t.Fatalf("%d items back, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d: %s, want %s", i, got[i], want[i])
		}
	}
	again, err := EncodeSeq(back)
	if err != nil {
		t.Fatal(err)
	}
	if !sameItems(items, again) {
		t.Fatal("a decoded sequence re-encodes differently")
	}
	if _, err := EncodeSeq(xquery.Seq{(*xmltree.Node)(nil)}); err == nil {
		t.Fatal("encoded a nil node")
	}
}

// sameItems compares wire items field by field, NaN equal to itself.
func sameItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Str != b[i].Str || a[i].Bool != b[i].Bool ||
			math.Float64bits(a[i].Num) != math.Float64bits(b[i].Num) || !bytes.Equal(a[i].Node, b[i].Node) ||
			a[i].Table != b[i].Table {
			return false
		}
	}
	return true
}

// A frame declaring more items than its payload could hold is refused
// before anything is allocated for them: refusing costs the error alone
// (the bound leaves room for the race detector and stray goroutines; an
// allocation for 2^40 items would not fit it).
func TestParseItemsRejectsHostileCount(t *testing.T) {
	payload := []byte{byte(ItemBool), 1, byte(ItemBool), 0, byte(ItemString), 0, 0}
	for _, count := range []int{-1, 4, 1 << 40} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseItems(count, payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("count %d accepted for a %d-byte payload", count, len(payload))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16 {
			t.Fatalf("refusing count %d allocated %d bytes", count, alloc)
		}
	}
}

// The node's flight-recorder entry reports the payload bytes the stream
// actually shipped — every frame's, the end frame's included.
func TestFlightRecordBytesArePayloadBytes(t *testing.T) {
	db := newNodeDB(t, 30)
	rec := obs.NewFlightRecorder(0)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{Recorder: rec, BatchItems: 7})
	c := dialStream(t, addr, ClientOptions{})
	mustQuery(t, c, allItemsQuery)
	// The server's framing, replayed: 7 items a frame, stored nodes
	// shipped from their records.
	w := itemWriter{origins: new(engine.Origins)}
	shipped := 0
	e, err := xquery.Parse(allItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.StreamQueryExpr(e, w.origins, func(items xquery.Seq) error {
		for _, it := range items {
			if err := w.add(it); err != nil {
				return err
			}
			if w.count == 7 {
				shipped += len(w.payload)
				w.reset()
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	shipped += len(w.payload)
	snap := rec.Snapshot(1)
	if len(snap) != 1 {
		t.Fatalf("recorder holds %d entries", len(snap))
	}
	if snap[0].Items != 30 || snap[0].Bytes != shipped {
		t.Fatalf("record says %d items, %d bytes; the stream shipped 30 items, %d payload bytes",
			snap[0].Items, snap[0].Bytes, shipped)
	}
}

// rangeSeeds are frames with ItemRange items: a valid copy-then-range
// frame, and each way a range can be wrong — before any table, borrowing
// a later item's table or its own, naming past its table, under a
// version 1 table, and after a truncated table entry.
func rangeSeeds(f testing.TB) []struct {
	count   int
	payload []byte
} {
	tree := xmltree.MustParseString("x", `<Item id="7"><Code>I7</Code><Name>n</Name></Item>`).Root
	var enc storage.Encoder
	rec := enc.Append(nil, tree)
	roots, err := storage.DecodeBatch([][]byte{rec}, nil)
	if err != nil {
		f.Fatal(err)
	}
	start, end, ok := roots[0].Child("Code").RecordRange()
	if !ok {
		f.Fatal("a decoded node has no record range")
	}
	code := rec[start:end]
	node := func(r []byte) []byte {
		return append(binary.AppendUvarint([]byte{byte(ItemNode)}, uint64(len(r))), r...)
	}
	rangeOf := func(table int, b []byte) []byte {
		out := binary.AppendUvarint([]byte{byte(ItemRange)}, uint64(table))
		return append(binary.AppendUvarint(out, uint64(len(b))), b...)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	v1 := append([]byte{1}, rec[1:]...) // no element of the tree carries an extent
	badName := []byte{byte(xmltree.ElementNode), 1, 99, 0}
	return []struct {
		count   int
		payload []byte
	}{
		{2, cat(node(rec), rangeOf(0, code))},
		{2, cat(rangeOf(0, code), node(rec))},
		{3, cat(node(rec), rangeOf(2, code), node(rec))},
		{2, cat(node(rec), rangeOf(1, code))},
		{2, cat(node(rec), rangeOf(0, badName))},
		{2, cat(node(v1), rangeOf(0, code))},
		{2, cat(node(rec[:4]), rangeOf(0, code))},
	}
}

// FuzzFramePayload feeds arbitrary (Count, Payload) pairs to what a client
// does with a query frame: parse the payload and check its node items on
// arrival (DecodeSeq), then build them on first use. It must never panic;
// a payload must pass the check exactly when decoding its node items at
// once (storage.DecodeBatch) succeeds, with the same error when neither
// does; every node that passed must build, without failing, to the tree
// that decode gives, IDs included; what arrival and building allocate
// together must be bounded by the payload's length, never by the
// declared count; and every payload that passes must re-encode to items
// that decode and re-encode to the same items again.
func FuzzFramePayload(f *testing.F) {
	for _, seq := range []xquery.Seq{
		nil,
		{"x", 1.5, true},
		{xmltree.MustParseString("x", `<Item id="7"><Code>I7</Code><Name>n &amp; m</Name></Item>`).Root, "y"},
	} {
		var w itemWriter
		for _, it := range seq {
			if err := w.add(it); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(w.count, w.payload)
		f.Add(w.count+1, w.payload)                                          // one item short
		f.Add(1<<40, w.payload)                                              // hostile count
		f.Add(w.count, append(w.payload[:len(w.payload):len(w.payload)], 0)) // trailing byte
	}
	for _, seed := range rangeSeeds(f) {
		f.Add(seed.count, seed.payload)
	}
	f.Fuzz(func(t *testing.T, count int, payload []byte) {
		var seq xquery.Seq
		var err error
		// TotalAlloc counts the fuzzing engine's allocations too, so a
		// window can only gain bytes from other work: the least of
		// several decodes of the same input is the decode's own.
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var items []Item
			items, err = parseItems(count, payload)
			if err == nil {
				if seq, err = DecodeSeq(items); err == nil {
					for _, it := range seq {
						xquery.NodeOf(it)
					}
				}
			}
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		// Per payload byte: an Item per two bytes, a slab node and a
		// child pointer per three record bytes, a name string per byte.
		if limit := 128*uint64(len(payload)) + 1<<12; got > limit {
			t.Fatalf("count %d, %d payload bytes: allocated %d bytes, bound is %d", count, len(payload), got, limit)
		}
		items, perr := parseItems(count, payload)
		if perr != nil {
			if err == nil || err.Error() != perr.Error() {
				t.Fatalf("parse error %v, arrival error %v", perr, err)
			}
			return
		}
		eager, eerr := storage.DecodeBatch(nodeRecords(items))
		if (err == nil) != (eerr == nil) || err != nil && err.Error() != eerr.Error() {
			t.Fatalf("arrival error %v, eager decode error %v", err, eerr)
		}
		if err != nil {
			return
		}
		for i, it := range seq {
			n, ok := xquery.NodeOf(it)
			if !ok {
				continue
			}
			if want := eager[0]; n == nil || !xmltree.Equal(n, want) || !sameIDs(n, want) {
				t.Fatalf("item %d builds to %s, the eager decode gives %s", i, nodeText(n), xmltree.NodeString(want))
			}
			eager = eager[1:]
		}
		once, err := EncodeSeq(seq)
		if err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		back, err := DecodeSeq(once)
		if err != nil {
			t.Fatalf("decoding a re-encoded frame: %v", err)
		}
		twice, err := EncodeSeq(back)
		if err != nil {
			t.Fatal(err)
		}
		if !sameItems(once, twice) {
			t.Fatal("round trip changed the items")
		}
	})
}
