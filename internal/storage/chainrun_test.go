package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"partix/internal/obs"
)

// record returns size bytes that differ from every other record's: tag
// then a position count.
func record(tag byte, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = tag + byte(i/PageSize)
	}
	return b
}

// walkChain reads a chain the way the store did before a run read it:
// one page at a time, following each page's next.
func walkChain(p *pager, first int64) ([]byte, error) {
	var out []byte
	page := make([]byte, PageSize)
	for id, n := first, int64(0); id != 0; n++ {
		if n == p.pageCount.Load() {
			return nil, fmt.Errorf("chain at page %d loops", first)
		}
		next, used, err := p.readPageHeaderInto(id, page)
		if err != nil {
			return nil, err
		}
		out = append(out, page[pageHeaderSize:pageHeaderSize+used]...)
		id = next
	}
	return out, nil
}

// setHeader rewrites page id's header, keeping its payload.
func setHeader(t *testing.T, p *pager, id, next int64, used int) {
	t.Helper()
	page := make([]byte, PageSize)
	if err := p.readPageInto(id, page); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(page, uint64(next))
	binary.LittleEndian.PutUint16(page[8:], uint16(used))
	if err := p.writePage(id, page); err != nil {
		t.Fatal(err)
	}
}

// A record on consecutive pages, of one page and of twenty, is one read
// of its pages whole, through ReadRef and through ReadRefs, and ReadRef
// allocates its buffer once: sized for the read, it never regrows.
// Meaningful without -race (verify.sh runs it so).
func TestContiguousChainIsOneRead(t *testing.T) {
	s, _ := tempStore(t)
	for _, pages := range []int{1, 20} {
		size := pages*pagePayload - 7
		data := record(byte(pages), size)
		first, err := s.pager.writeRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		ref := DocRef{Name: "d", Page: first, Size: int64(size)}
		reads, read := obs.StoragePagesRead.Value(), obs.StorageBytesRead.Value()
		got, err := s.ReadRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d-page record read back wrong", pages)
		}
		if d := obs.StoragePagesRead.Value() - reads; d != 1 {
			t.Fatalf("%d-page record took %d reads, want 1", pages, d)
		}
		if d := obs.StorageBytesRead.Value() - read; d != int64(pages*PageSize) {
			t.Fatalf("%d-page record read %d bytes, want its %d pages", pages, d, pages)
		}
		recs := make([][]byte, 1)
		reads = obs.StoragePagesRead.Value()
		if _, err := s.ReadRefs(make([]byte, 0, ReadSpan([]DocRef{ref})), []DocRef{ref}, recs); err != nil {
			t.Fatal(err)
		}
		if d := obs.StoragePagesRead.Value() - reads; d != 1 || !bytes.Equal(recs[0], data) {
			t.Fatalf("ReadRefs of a %d-page record took %d reads (equal %v)", pages, d, bytes.Equal(recs[0], data))
		}
		if a := testing.AllocsPerRun(20, func() {
			if _, err := s.ReadRef(ref); err != nil {
				t.Fatal(err)
			}
		}); a != 1 {
			t.Fatalf("ReadRef of a %d-page record allocates %.1f times, want 1", pages, a)
		}
	}
}

// A chain whose pages stop forming a run mid-way (a middle header names
// another page, carries a bad used, ends the chain early, or the read runs
// past the file's written end) reads exactly what a page-by-page walk of
// its links reads, or fails: never the bytes of the page after the break.
func TestHostileChainRunsFallBackToWalk(t *testing.T) {
	const size = 3 * pagePayload
	for _, tc := range []struct {
		name string
		// corrupt relinks the chain at r (three full pages) with d, a
		// chain of the same size written right after it; it returns the
		// chain's first page.
		corrupt func(t *testing.T, p *pager, r, d int64) int64
		fails   bool
	}{
		{"middle page names another page", func(t *testing.T, p *pager, r, d int64) int64 {
			setHeader(t, p, r+1, d+2, pagePayload) // d's last page ends the chain
			return r
		}, false},
		{"middle page names an earlier page", func(t *testing.T, p *pager, r, d int64) int64 {
			setHeader(t, p, r+1, r, pagePayload)
			return r
		}, true},
		{"middle page has a bad used", func(t *testing.T, p *pager, r, d int64) int64 {
			setHeader(t, p, r+1, r+2, pagePayload+1)
			return r
		}, true},
		{"middle page has a short used", func(t *testing.T, p *pager, r, d int64) int64 {
			setHeader(t, p, r+1, r+2, 100)
			return r
		}, true},
		{"middle page ends the chain", func(t *testing.T, p *pager, r, d int64) int64 {
			setHeader(t, p, r+1, 0, pagePayload)
			return r
		}, true},
		{"read runs past the written end", func(t *testing.T, p *pager, r, d int64) int64 {
			// The chain starts on the file's last written page (a copy of
			// r's first) and goes on at r+1; the two pages after its first
			// are allocated, not written.
			var first int64
			for i := 0; i < 3; i++ {
				id, err := p.allocPage()
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = id
				}
			}
			page := make([]byte, PageSize)
			if err := p.readPageInto(r, page); err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(page, uint64(r+1))
			if err := p.writePage(first, page); err != nil {
				t.Fatal(err)
			}
			return first
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := tempStore(t)
			r, err := s.pager.writeRecord(record('r', size))
			if err != nil {
				t.Fatal(err)
			}
			d, err := s.pager.writeRecord(record('d', size))
			if err != nil {
				t.Fatal(err)
			}
			if d != r+3 {
				t.Fatalf("records at pages %d and %d, want consecutive", r, d)
			}
			first := tc.corrupt(t, s.pager, r, d)
			want, walkErr := walkChain(s.pager, first)
			if walkErr == nil && len(want) != size {
				walkErr = fmt.Errorf("walk read %d bytes", len(want))
			}
			if (walkErr != nil) != tc.fails {
				t.Fatalf("the walk's outcome is %v, want failure %v", walkErr, tc.fails)
			}
			ref := DocRef{Name: "r", Page: first, Size: size}
			recs := make([][]byte, 1)
			for _, read := range []func() ([]byte, error){
				func() ([]byte, error) { return s.ReadRef(ref) },
				func() ([]byte, error) {
					_, err := s.ReadRefs(make([]byte, 0, ReadSpan([]DocRef{ref})), []DocRef{ref}, recs)
					return recs[0], err
				},
				func() ([]byte, error) {
					_, err := s.ReadRefs(nil, []DocRef{ref}, recs)
					return recs[0], err
				},
			} {
				got, err := read()
				switch {
				case tc.fails && err == nil:
					t.Fatal("read of a broken chain succeeded")
				case !tc.fails && err != nil:
					t.Fatalf("read failed where the walk succeeds: %v", err)
				case err == nil && !bytes.Equal(got, want):
					t.Fatal("read returned other bytes than the chain's links name")
				}
			}
		})
	}
}

// ReadRefs reads records that sit back to back in a packed page with one
// read whatever their name order, and hands each ref its own record:
// documents put in reverse name order lie in the page in reverse of the
// snapshot's refs.
func TestReadRefsReadsSlotsInFileOrder(t *testing.T) {
	s, _ := tempStore(t)
	for i := 4; i >= 0; i-- {
		if err := s.PutDocument("items", doc(fmt.Sprintf("d%d", i), smallXML(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.SnapshotCollection("items")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	want := make([][]byte, len(snap.Refs))
	for i, r := range snap.Refs {
		if want[i], err = s.ReadRef(r); err != nil {
			t.Fatal(err)
		}
	}
	recs := make([][]byte, len(snap.Refs))
	reads := obs.StoragePagesRead.Value()
	if _, err := s.ReadRefs(nil, snap.Refs, recs); err != nil {
		t.Fatal(err)
	}
	if d := obs.StoragePagesRead.Value() - reads; d != 1 {
		t.Fatalf("%d records back to back in reverse name order took %d reads, want 1", len(snap.Refs), d)
	}
	for i := range recs {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("ReadRefs handed %s another record", snap.Refs[i].Name)
		}
	}
}
