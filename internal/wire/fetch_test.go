package wire

// Coverage for the fetch frame codec: a fetch frame's documents travel as
// one payload (Frame.Count, Frame.Payload), their names and then their
// records, written by one per-stream docWriter and built by one
// storage.DecodeBatch on arrival, so its cost is per frame, not per
// document.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/storage"
	"partix/internal/xmltree"
)

// fetchDB opens a node holding collection c of docs small Items,
// d00, d01, ...
func fetchDB(t testing.TB, docs int) (*engine.DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.db")
	db, err := engine.Open(path, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.Store().CreateCollection("c")
	for i := range docs {
		doc := xmltree.MustParseString(fmt.Sprintf("d%02d", i),
			fmt.Sprintf(`<Item id="%d"><Code>I%d</Code><Name>n%d &amp; m</Name></Item>`, i, i, i))
		if err := db.PutDocument("c", doc); err != nil {
			t.Fatal(err)
		}
	}
	return db, path
}

// TestFetchAllocsPerFrame pins a fetch frame's cost, node and receiver
// together, at a constant number of allocations whatever its document
// count: a one-frame fetch of 40 small documents may cost fewer than 18
// allocations more than one of 4, whole and under a projection, through
// a LocalNode and over TCP. So no name, record or tree is allocated per
// document. When each document travelled as a name and a []byte of its
// own, re-encoded one by one under a projection and decoded one by one on
// arrival, the 36 more documents cost 226 (whole, LocalNode) to 730
// (projected, TCP) allocations more.
func TestFetchAllocsPerFrame(t *testing.T) {
	const runs = 20
	small, _ := fetchDB(t, 4)
	large, _ := fetchDB(t, 40)
	keep, err := xmltree.ParseProjection("{Code}")
	if err != nil {
		t.Fatal(err)
	}
	_, smallAddr := startServerOn(t, small, "127.0.0.1:0", ServerOptions{})
	_, largeAddr := startServerOn(t, large, "127.0.0.1:0", ServerOptions{})
	drivers := []struct {
		name         string
		small, large cluster.Driver
	}{
		{"local", NewLocalNode("n0", small), NewLocalNode("n0", large)},
		{"tcp", dialStream(t, smallAddr, ClientOptions{}), dialStream(t, largeAddr, ClientOptions{})},
	}
	for _, d := range drivers {
		for _, spec := range []cluster.FetchSpec{{}, {Keep: keep}} {
			fetch := func(node cluster.Driver, docs int) float64 {
				return testing.AllocsPerRun(runs, func() {
					col, err := node.Fetch("c", spec)
					if err != nil {
						t.Fatal(err)
					}
					if col.Len() != docs {
						t.Fatalf("fetched %d documents, want %d", col.Len(), docs)
					}
				})
			}
			a4, a40 := fetch(d.small, 4), fetch(d.large, 40)
			t.Logf("%s, keep %s: %.1f allocations for 4 documents, %.1f for 40", d.name, spec.Keep, a4, a40)
			if a40-a4 >= 18 {
				t.Errorf("%s, keep %s: 36 more documents cost %.1f more allocations", d.name, spec.Keep, a40-a4)
			}
		}
	}
}

// A corrupt fetched record fails the fetch under its document's name, as
// storage.DecodeDocument reports it, whichever peer finds it and through
// either driver: a flipped byte in a stored record fails its checksum (at
// the receiver of a whole fetch, at the node of a projected one), and a
// flipped byte in a record the node re-encoded under a projection, which
// carries no checksum, fails its structure at the receiver.
func TestCorruptFetchedRecordNamesItsDocument(t *testing.T) {
	t.Run("stored", func(t *testing.T) {
		db, path := fetchDB(t, 6)
		flipStoredByte(t, db, path, "d02")
		keep, err := xmltree.ParseProjection("{Code}")
		if err != nil {
			t.Fatal(err)
		}
		_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
		for _, d := range []cluster.Driver{NewLocalNode("n0", db), dialStream(t, addr, ClientOptions{})} {
			for _, spec := range []cluster.FetchSpec{{}, {Keep: keep}} {
				col, err := d.Fetch("c", spec)
				if want := `storage: decode "d02": ` + storage.ErrChecksum.Error(); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%T, keep %s: fetched %v, err = %v, want it to say %s", d, spec.Keep, col, err, want)
				}
			}
		}
	})
	t.Run("re-encoded", func(t *testing.T) {
		db, _ := fetchDB(t, 6)
		keep, err := xmltree.ParseProjection("{Code}")
		if err != nil {
			t.Fatal(err)
		}
		// tamper runs on the node's goroutine: over TCP, the server's.
		var mu sync.Mutex
		var want string
		tamper := func(f *Frame) {
			names, recs, ok := parseFetchPayload(f.Count, f.Payload)
			i := slices.Index(names, "d02")
			if !ok || i < 0 {
				return
			}
			_, table, err := storage.RecordHead(recs[i])
			if err != nil {
				t.Error(err)
				return
			}
			recs[i][1+len(table)] = 0x7f // the root's kind byte: no such kind
			_, derr := storage.DecodeDocument("d02", recs[i])
			if derr == nil || errors.Is(derr, storage.ErrChecksum) {
				t.Errorf("the flipped record decodes with %v, want a structure error", derr)
				return
			}
			mu.Lock()
			want = derr.Error()
			mu.Unlock()
		}
		srv, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
		srv.tamper = tamper
		local := NewLocalNode("n0", db)
		local.srv.tamper = tamper
		for _, d := range []cluster.Driver{local, dialStream(t, addr, ClientOptions{})} {
			col, err := d.Fetch("c", cluster.FetchSpec{Keep: keep})
			mu.Lock()
			w := want
			want = ""
			mu.Unlock()
			if err == nil || w == "" || err.Error() != w {
				t.Fatalf("%T: fetched %v, err = %v, want %s", d, col, err, w)
			}
			var ne *NodeError
			if errors.As(err, &ne) {
				t.Fatalf("%T: the receiver's decode error is reported as the node's: %v", d, err)
			}
		}
	})
}

// flipStoredByte inverts a byte in the middle of a stored document's
// record in the store file at path. The record is a small one, a slot of
// a packed page: it starts at its ref's offset in that page.
func flipStoredByte(t *testing.T, db *engine.DB, path, name string) {
	t.Helper()
	snap, err := db.Store().SnapshotCollection("c")
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(snap.Refs, func(r storage.DocRef) bool { return r.Name == name })
	ref := snap.Refs[i]
	snap.Close()
	if ref.Off == 0 {
		t.Fatalf("record of %q is chained, not packed", name)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := ref.Page*storage.PageSize + ref.Off + int64(ref.Size)/2
	b := []byte{0}
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

// fetchFrameOf is the payload a node streams for a fetch of collection c
// of db in one frame.
func fetchFrameOf(t testing.TB, db *engine.DB, spec cluster.FetchSpec) (int, []byte) {
	t.Helper()
	srv := NewServerLogger(db, nil, ServerOptions{})
	var count int
	var payload []byte
	failure, err := srv.stream(fetchRequest("c", spec), nil, func(f *Frame) error {
		count, payload = f.Count, bytes.Clone(f.Payload)
		return nil
	}, nil)
	if err != nil || failure != nil {
		t.Fatal(err, failure)
	}
	return count, payload
}

// FuzzFetchFrame feeds arbitrary (Count, Payload) pairs to what a
// receiver does with a fetch frame (decodeDocs). It must never panic; a
// frame it accepts must add, in order, exactly the documents its payload
// names, each with the tree storage.DecodeDocument builds from its record,
// IDs included; a frame it rejects must add no document; a frame whose
// names and records parse but whose record does not decode must fail with
// DecodeDocument's error for the first such record, under its name; and
// what the decode allocates must be bounded by the payload's length, never
// by the declared count. Seeds: real frames a node streams (whole and
// projected), and frames whose count, names size or record lengths lie, a
// record without its name, a record with a hostile child count, and a
// trailing byte.
func FuzzFetchFrame(f *testing.F) {
	db, _ := fetchDB(f, 3)
	count, whole := fetchFrameOf(f, db, cluster.FetchSpec{})
	keep, err := xmltree.ParseProjection("{Code}")
	if err != nil {
		f.Fatal(err)
	}
	_, kept := fetchFrameOf(f, db, cluster.FetchSpec{Keep: keep})
	f.Add(count, whole)
	f.Add(count, kept)
	f.Add(count+1, whole)                                    // one document short
	f.Add(1<<40, whole)                                      // hostile count
	f.Add(count, append(slices.Clone(whole), 0))             // trailing byte
	f.Add(count, append([]byte{whole[0] + 1}, whole[1:]...)) // names size lies
	uv := func(n int) []byte { return binary.AppendUvarint(nil, uint64(n)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	rec, err := storage.EncodeDocument(xmltree.MustParseString("a", `<a><b>x</b></a>`))
	if err != nil {
		f.Fatal(err)
	}
	named := cat(uv(2), uv(1), []byte("a"))
	f.Add(1, cat(named, uv(len(rec)), rec))                    // a sound frame of one document
	f.Add(2, cat(named, uv(len(rec)), rec, uv(len(rec)), rec)) // a record without its name
	f.Add(1, cat(named, uv(len(rec)+5), rec))                  // a record length that lies
	// An element declaring 2^40 children, under a table naming "a".
	hostile := cat([]byte{2, 1, 1, 'a', byte(xmltree.ElementNode), 1, 0}, uv(1<<40))
	f.Add(1, cat(named, uv(len(hostile)), hostile))
	f.Fuzz(func(t *testing.T, count int, payload []byte) {
		var col *xmltree.Collection
		var err error
		// TotalAlloc counts the fuzzing engine's allocations too: the
		// least of several decodes of the same input is the decode's own.
		got := uint64(math.MaxUint64)
		for range 3 {
			col = xmltree.NewCollection("c", &xmltree.Document{Name: "before"})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = decodeDocs(col, count, payload)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := 128*uint64(len(payload)) + 1<<12; got > limit {
			t.Fatalf("count %d, %d payload bytes: allocated %d bytes, bound is %d", count, len(payload), got, limit)
		}
		if err != nil {
			if col.Len() != 1 {
				t.Fatalf("a rejected frame added %d documents: %v", col.Len()-1, err)
			}
			if names, recs, ok := parseFetchPayload(count, payload); ok {
				for i, rec := range recs {
					if _, derr := storage.DecodeDocument(names[i], rec); derr != nil {
						if err.Error() != derr.Error() {
							t.Fatalf("frame error %v, the first corrupt record's is %v", err, derr)
						}
						return
					}
				}
				t.Fatalf("a frame whose records all decode failed: %v", err)
			}
			return
		}
		if count == 0 && len(payload) == 0 {
			return
		}
		names, recs, ok := parseFetchPayload(count, payload)
		if !ok {
			t.Fatal("an accepted fetch payload does not parse")
		}
		if col.Len() != 1+count {
			t.Fatalf("an accepted frame of %d documents added %d", count, col.Len()-1)
		}
		for i, doc := range col.Docs[1:] {
			want, derr := storage.DecodeDocument(names[i], recs[i])
			if derr != nil {
				t.Fatalf("accepted document %d fails alone: %v", i, derr)
			}
			if doc.Name != names[i] || !xmltree.Equal(doc.Root, want.Root) || !sameIDs(doc.Root, want.Root) {
				t.Fatalf("document %d is %q %s, its record decodes to %q %s",
					i, doc.Name, xmltree.NodeString(doc.Root), names[i], xmltree.NodeString(want.Root))
			}
		}
	})
}

// parseFetchPayload reads a fetch payload's names and records as the
// grammar lays them out, reporting whether it holds exactly count of each.
func parseFetchPayload(count int, payload []byte) (names []string, recs [][]byte, ok bool) {
	if count < 0 || count > len(payload) {
		return nil, nil, false
	}
	next := func(b *[]byte) ([]byte, bool) {
		l, n := binary.Uvarint(*b)
		if n <= 0 || l > uint64(len(*b)-n) {
			return nil, false
		}
		v := (*b)[n : n+int(l)]
		*b = (*b)[n+int(l):]
		return v, true
	}
	block, ok := next(&payload)
	if !ok {
		return nil, nil, false
	}
	for range count {
		name, ok := next(&block)
		if !ok {
			return nil, nil, false
		}
		names = append(names, string(name))
		rec, ok := next(&payload)
		if !ok {
			return nil, nil, false
		}
		recs = append(recs, rec)
	}
	return names, recs, len(block) == 0 && len(payload) == 0
}

// A fetch's names travel packed in one string and come back, on the node,
// as the same list; a packed list that lies about a length is refused.
func TestPackedNames(t *testing.T) {
	for _, names := range [][]string{{"d01"}, {"", "a", strings.Repeat("x", 300), "d02"}} {
		got, err := splitNames(packNames(names))
		if err != nil || !slices.Equal(got, names) {
			t.Fatalf("%q comes back as %q, %v", names, got, err)
		}
	}
	if got, err := splitNames(""); got != nil || err != nil {
		t.Fatalf("no names come back as %q, %v; want nil, every document", got, err)
	}
	for _, packed := range []string{"\x05abc", "\x80", "\x01a\x02b", strings.Repeat("\xff", 11)} {
		if got, err := splitNames(packed); err == nil {
			t.Fatalf("%q splits into %q", packed, got)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { splitNames(packNames([]string{"a", "b", "c", "d"})) }); allocs > 2 {
		t.Fatalf("packing and splitting 4 names allocates %.0f times, want 2", allocs)
	}
}

// A fetch stream's Total counts documents: a peer whose end frame claims
// a document more than its frames carried fails the fetch as a broken
// stream, and one that claims exactly what they carried delivers them.
func TestFetchStreamTotalCountsDocuments(t *testing.T) {
	db, _ := fetchDB(t, 3)
	count, payload := fetchFrameOf(t, db, cluster.FetchSpec{})
	for _, total := range []int{count, count + 1} {
		addr, _, _ := otherVersionServer(t, func(req *Request) any {
			if req.Op != OpFetchStream {
				return &Response{Proto: ProtocolVersion}
			}
			return &Frame{Kind: FrameEnd, Count: count, Payload: payload, Total: total}
		})
		c := dialStream(t, addr, ClientOptions{MaxRetries: -1})
		col, err := c.FetchCollection("c")
		switch {
		case total == count && (err != nil || col.Len() != count):
			t.Fatalf("a sound stream of %d documents: %v, %v", count, col, err)
		case total != count && (err == nil || !strings.Contains(err.Error(), "stream integrity")):
			t.Fatalf("an end frame claiming %d of %d documents: %v, err = %v", total, count, col, err)
		}
	}
}
