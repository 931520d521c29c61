package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func TestWALRecordRoundTrip(t *testing.T) {
	records := []walRecord{
		{Op: walOpPut, Collection: "items", Doc: "d1", Data: []byte("payload")},
		{Op: walOpDelete, Collection: "items", Doc: "d2"},
		{Op: walOpDrop, Collection: "gone"},
		{Op: walOpCreate, Collection: "fresh"},
		{Op: walOpMeta, Doc: "engine:index", Data: bytes.Repeat([]byte("m"), 3*PageSize)},
		{Op: walOpMeta, Doc: "engine:index"}, // empty data = delete
	}
	for i, rec := range records {
		frame := encodeWALRecord(nil, rec)
		got, ok := decodeWALRecord(frame[walFrameSize:])
		if !ok {
			t.Fatalf("record %d failed to decode", i)
		}
		if got.Op != rec.Op || got.Collection != rec.Collection || got.Doc != rec.Doc || !bytes.Equal(got.Data, rec.Data) {
			t.Fatalf("record %d round trip mismatch: %+v vs %+v", i, rec, got)
		}
	}
	if _, ok := decodeWALRecord([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); ok {
		t.Fatal("unknown op decoded")
	}
	if _, ok := decodeWALRecord(nil); ok {
		t.Fatal("empty payload decoded")
	}
}

func TestWALReopenReplaysAppendedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	w, records, err := openWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh wal returned %d records", len(records))
	}
	want := []walRecord{
		{Op: walOpPut, Collection: "c", Doc: "a", Data: []byte("one")},
		{Op: walOpDelete, Collection: "c", Doc: "a"},
		{Op: walOpPut, Collection: "c", Doc: "b", Data: []byte("two")},
	}
	for _, rec := range want {
		if _, err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	w2, got, err := openWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Doc != want[i].Doc || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if w2.lastSeq() != uint64(len(want)) {
		t.Fatalf("sequence resumed at %d", w2.lastSeq())
	}
}

func TestWALTruncatesCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	w, _, err := openWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := 0; i < 3; i++ {
		if _, err := w.append(walRecord{Op: walOpPut, Collection: "c", Doc: fmt.Sprintf("d%d", i), Data: []byte("data")}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.sizeNow())
	}
	w.close()

	// Flip one byte inside the third record's payload: CRC must reject it
	// and the log must come back truncated to the two intact records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[ends[1]+walFrameSize+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, records, err := openWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(records) != 2 {
		t.Fatalf("replayed %d records past a corrupt frame, want 2", len(records))
	}
	if w2.sizeNow() != ends[1] {
		t.Fatalf("torn tail not truncated: size %d, want %d", w2.sizeNow(), ends[1])
	}
}

// TestWALGroupCommit drives concurrent committers through the group-commit
// path and asserts every acknowledged commit is covered by a sync.
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	w, _, err := openWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				seq, err := w.append(walRecord{Op: walOpPut, Collection: "c", Doc: fmt.Sprintf("g%d-%d", g, i), Data: []byte("x")})
				if err != nil {
					errs <- err
					return
				}
				if err := w.commit(seq); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	w.gc.mu.Lock()
	synced := w.gc.synced
	w.gc.mu.Unlock()
	if synced != w.lastSeq() {
		t.Fatalf("synced %d of %d appended records", synced, w.lastSeq())
	}
}

// FuzzWALRecord feeds arbitrary bytes to the log's two readers: to
// decodeWALRecord as one frame payload, and to scanWAL as the tail of a
// log after a valid header. Neither may panic. A payload that decodes must
// re-encode to the same bytes. A scan allocates in proportion to the log's
// bytes, never to what a length field claims (up to walMaxRecord), and
// stops at the first torn or corrupt frame: the records it replays
// re-encode to exactly the bytes before the offset it returns, and a log
// holding only what follows that offset replays nothing. The seed corpus
// (testdata/fuzz/FuzzWALRecord) holds a log of every operation, a torn
// tail, a checksum mismatch before a good frame, a length past
// walMaxRecord, a zero length, an unknown operation and a payload with
// bytes after its data.
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, tail []byte) {
		if rec, ok := decodeWALRecord(tail); ok {
			if frame := encodeWALRecord(nil, rec); !bytes.Equal(frame[walFrameSize:], tail) {
				t.Fatalf("payload %q decodes to %+v, which encodes to %q", tail, rec, frame[walFrameSize:])
			}
		}
		log := append([]byte(walMagic), tail...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		records, good := scanWAL(bytes.NewReader(log), int64(len(log)))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32*uint64(len(log))+64<<10 {
			t.Fatalf("scanning a %d-byte log allocated %d bytes", len(log), alloc)
		}
		if good < walHeaderSize || good > int64(len(log)) {
			t.Fatalf("scan of a %d-byte log ends at %d", len(log), good)
		}
		var replayed []byte
		for _, rec := range records {
			replayed = encodeWALRecord(replayed, rec)
		}
		if !bytes.Equal(replayed, log[walHeaderSize:good]) {
			t.Fatalf("%d replayed records re-encode to %d bytes, the scan kept %d", len(records), len(replayed), good-walHeaderSize)
		}
		rest := append([]byte(walMagic), log[good:]...)
		if more, _ := scanWAL(bytes.NewReader(rest), int64(len(rest))); len(more) != 0 {
			t.Fatalf("the scan stopped at %d before %d good records", good, len(more))
		}
	})
}
