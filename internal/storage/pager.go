// Package storage implements the persistent document store each PartiX
// node runs on: a paged single-file store with a free list, records in
// chained or packed pages, a collection catalog and a compact binary tree
// encoding that preserves node IDs (vertical fragments are joined back by
// ID, so the store must not lose them the way a plain XML serialization
// would).
//
// The layout is deliberately simple and classical:
//
//	page 0            header (magic, page count, free list, catalog
//	                  record pointer)
//	page 1..n         record pages, each [next int64][used uint16][data]
//
// A record of more than packMax bytes (an encoded document, a metadata
// record, the catalog itself) occupies a chain of pages of its own. A
// smaller document record is a slot in a packed page: records appended
// back to back after the page header (next 0, used packedMark), each
// located by its catalog entry's page, byte offset and size, so one
// 400-byte Item costs its 400 bytes rather than a 4 KB page. packMax is
// half a page's payload: every small record fits, and a page closed
// because the next record does not fit wastes at most packMax bytes. It is
// a constant, not an option, because the reader never needs it (an entry's
// offset says packed or chained) and no workload wants another value.
//
// Freeing is deferred. A replaced, deleted or dropped chain is parked on a
// pending-free list; a packed page is parked once its last live slot dies
// (the store counts live slots per page, in memory, from the catalog).
// Parked pages rejoin the on-disk free list only at the next checkpoint,
// and only once no snapshot reader pinned before the freeing operation is
// still active. Writes obey one byte-wise rule: no byte of a record that
// the last checkpointed catalog or a pinned snapshot can reach is ever
// rewritten. A chain goes to pages nothing reaches; a packed record goes
// only into the unused tail of the one open packed page, and every
// checkpoint retires that page, so a page holding checkpointed records is
// never written again until it is freed. That discipline is what makes
// both crash recovery and MVCC reads work. Mutating operations are
// serialized by a store-level mutex; durability is write-ahead logging
// with group-commit fsync (wal.go), with the catalog persisted by
// checkpoints.
package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"partix/internal/obs"
)

// PageSize is the fixed page size of a store file.
const PageSize = 4096

const (
	// magic marks a store whose catalog may hold packed entries; a binary
	// that knows only chained records refuses it instead of misreading
	// them. magicChained is the older, chained-only layout, which opens
	// and reads unchanged (its entries all have offset 0).
	magic          = "PTXSTOR2"
	magicChained   = "PTXSTOR1"
	headerSize     = 8 + 8 + 8 + 8 // magic, pageCount, freeHead, catalogPage
	pageHeaderSize = 8 + 2         // next page id, used bytes
	pagePayload    = PageSize - pageHeaderSize

	// packMax is the largest record stored in a packed page (see the
	// package comment).
	packMax = pagePayload / 2
	// packedMark is a packed page's used field: more than any chained
	// page's, so a packed page walked as a chain fails as corrupt.
	packedMark = 0xFFFF
)

// pagePool recycles page-sized scratch buffers for page writes, the
// header reads of allocation and chain walks. A known-size record on
// consecutive pages is read whole into its caller's buffer (appendRun),
// so the query hot path takes none.
var pagePool = sync.Pool{
	New: func() any {
		b := make([]byte, PageSize)
		return &b
	},
}

// pager manages the page file: allocation, free list and raw page IO.
// Allocation and free-list state are mutated only under the owning
// store's write lock; pageCount is atomic because pinned snapshot readers
// bounds-check page reads without holding any store lock.
type pager struct {
	f         *os.File
	pageCount atomic.Int64
	freeHead  int64
	catalog   int64 // first page of the catalog record, 0 if none

	// failWrite, when set, intercepts every page write (test hook for
	// injecting I/O failures on specific pages).
	failWrite func(id int64) error
}

func openPager(path string) (*pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	p := &pager{f: f}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size() == 0 {
		p.pageCount.Store(1) // header page
		if err := p.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return p, nil
	}
	if err := p.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

func (p *pager) writeHeader() error {
	buf := make([]byte, PageSize)
	copy(buf, magic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.pageCount.Load()))
	binary.LittleEndian.PutUint64(buf[16:], uint64(p.freeHead))
	binary.LittleEndian.PutUint64(buf[24:], uint64(p.catalog))
	if _, err := p.f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("storage: write header: %w", err)
	}
	return nil
}

func (p *pager) readHeader() error {
	buf := make([]byte, PageSize)
	if _, err := io.ReadFull(io.NewSectionReader(p.f, 0, PageSize), buf); err != nil {
		return fmt.Errorf("storage: read header: %w", err)
	}
	if m := string(buf[:8]); m != magic && m != magicChained {
		return fmt.Errorf("storage: bad magic %q (not a partix store)", buf[:8])
	}
	p.pageCount.Store(int64(binary.LittleEndian.Uint64(buf[8:])))
	p.freeHead = int64(binary.LittleEndian.Uint64(buf[16:]))
	p.catalog = int64(binary.LittleEndian.Uint64(buf[24:]))
	if p.pageCount.Load() < 1 {
		return fmt.Errorf("storage: corrupt header: page count %d", p.pageCount.Load())
	}
	return nil
}

// allocPage returns a usable page id, reusing the free list first.
func (p *pager) allocPage() (int64, error) {
	if p.freeHead != 0 {
		id := p.freeHead
		bufp := pagePool.Get().(*[]byte)
		next, _, err := p.readPageHeaderInto(id, *bufp)
		pagePool.Put(bufp)
		if err != nil {
			return 0, err
		}
		p.freeHead = next
		return id, nil
	}
	id := p.pageCount.Load()
	p.pageCount.Add(1)
	return id, nil
}

// freePage links the page into the free list. Only the page header is
// meaningful on a free page (allocPage validates it), so the pooled
// buffer's stale payload past the header is harmless.
func (p *pager) freePage(id int64) error {
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	buf := *bufp
	for i := 0; i < pageHeaderSize; i++ {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint64(buf, uint64(p.freeHead))
	if err := p.writePage(id, buf); err != nil {
		return err
	}
	p.freeHead = id
	return nil
}

func (p *pager) writePage(id int64, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: page buffer is %d bytes", len(buf))
	}
	if id < 1 {
		return fmt.Errorf("storage: write to reserved page %d", id)
	}
	if p.failWrite != nil {
		if err := p.failWrite(id); err != nil {
			return err
		}
	}
	if _, err := p.f.WriteAt(buf, id*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	obs.StoragePagesWritten.Inc()
	obs.StorageBytesWritten.Add(PageSize)
	return nil
}

// readPageInto fills buf (PageSize bytes) with the page's content.
func (p *pager) readPageInto(id int64, buf []byte) error {
	if count := p.pageCount.Load(); id < 1 || id >= count {
		return fmt.Errorf("storage: read of page %d outside store (pages: %d)", id, count)
	}
	if _, err := p.f.ReadAt(buf, id*PageSize); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	obs.StoragePagesRead.Inc()
	obs.StorageBytesRead.Add(PageSize)
	return nil
}

func (p *pager) readPageHeaderInto(id int64, buf []byte) (next int64, used int, err error) {
	if err := p.readPageInto(id, buf); err != nil {
		return 0, 0, err
	}
	return pageHeader(id, buf)
}

// pageHeader parses the header at the front of page id's bytes in buf.
func pageHeader(id int64, buf []byte) (next int64, used int, err error) {
	next = int64(binary.LittleEndian.Uint64(buf))
	used = int(binary.LittleEndian.Uint16(buf[8:]))
	if used > pagePayload {
		return 0, 0, fmt.Errorf("storage: corrupt page %d: used %d", id, used)
	}
	return next, used, nil
}

// allocRecordPages reserves a chain of pages big enough for size bytes.
// Callers hold the store's write lock; the pages are exclusively theirs
// until committed into the catalog or returned via the pending-free list,
// so the data can be written without any lock held.
func (p *pager) allocRecordPages(size int) ([]int64, error) {
	if size == 0 {
		return nil, fmt.Errorf("storage: empty record")
	}
	n := (size + pagePayload - 1) / pagePayload
	pages := make([]int64, n)
	for i := range pages {
		id, err := p.allocPage()
		if err != nil {
			return nil, err
		}
		pages[i] = id
	}
	return pages, nil
}

// writeRecordPages fills a pre-allocated chain with data, linking the
// pages front-to-back. No lock is needed: the chain is unreferenced until
// the caller commits it.
func (p *pager) writeRecordPages(pages []int64, data []byte) error {
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	buf := *bufp
	for i, id := range pages {
		chunk := data[i*pagePayload:]
		if len(chunk) > pagePayload {
			chunk = chunk[:pagePayload]
		}
		var next int64
		if i+1 < len(pages) {
			next = pages[i+1]
		}
		binary.LittleEndian.PutUint64(buf, uint64(next))
		binary.LittleEndian.PutUint16(buf[8:], uint16(len(chunk)))
		copy(buf[pageHeaderSize:], chunk)
		if err := p.writePage(id, buf); err != nil {
			return err
		}
	}
	return nil
}

// writeAt writes a record into the room allocLocked reserved for it: the
// packed slot at byte off of pages[0], or the chain pages when off is 0.
func (p *pager) writeAt(pages []int64, off int64, data []byte) error {
	if off != 0 {
		return p.writeSlot(pages[0], off, data)
	}
	return p.writeRecordPages(pages, data)
}

// writeRecord stores data in a fresh chain of pages and returns the id of
// the first page (allocation and writes under one caller-held lock; used
// for the rare catalog write, where staging buys nothing).
func (p *pager) writeRecord(data []byte) (int64, error) {
	pages, err := p.allocRecordPages(len(data))
	if err != nil {
		return 0, err
	}
	if err := p.writeRecordPages(pages, data); err != nil {
		return 0, err
	}
	return pages[0], nil
}

// writeSlot writes a packed record at byte off of page id. The first
// slot of a page writes the page header with it, in one write; a later
// slot writes its own bytes only, into the page's unused tail. No lock is
// needed: the slot is the caller's until it commits it.
func (p *pager) writeSlot(id, off int64, data []byte) error {
	if id < 1 {
		return fmt.Errorf("storage: write to reserved page %d", id)
	}
	if off < pageHeaderSize || int64(len(data)) > PageSize-off {
		return fmt.Errorf("storage: slot of %d bytes at offset %d outside page %d", len(data), off, id)
	}
	if p.failWrite != nil {
		if err := p.failWrite(id); err != nil {
			return err
		}
	}
	at, out := id*PageSize+off, data
	if off == pageHeaderSize {
		bufp := pagePool.Get().(*[]byte)
		defer pagePool.Put(bufp)
		buf := *bufp
		binary.LittleEndian.PutUint64(buf, 0)
		binary.LittleEndian.PutUint16(buf[8:], packedMark)
		at, out = id*PageSize, append(buf[:pageHeaderSize], data...)
	}
	if _, err := p.f.WriteAt(out, at); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	obs.StoragePagesWritten.Inc()
	obs.StorageBytesWritten.Add(int64(len(out)))
	return nil
}

// appendSlots appends the size bytes at byte off of packed page id to out
// with one read (one slot, or a run of slots that sit back to back), and
// returns the extended buffer, which grows only when out's spare capacity
// is short of size. The range must lie within the page's payload.
func (p *pager) appendSlots(out []byte, id, off, size int64) ([]byte, error) {
	if err := p.checkSlot(id, off, size); err != nil {
		return nil, err
	}
	out = slices.Grow(out, int(size))
	dst := out[len(out) : len(out)+int(size)]
	if _, err := p.f.ReadAt(dst, id*PageSize+off); err != nil {
		return nil, fmt.Errorf("storage: read page %d: %w", id, err)
	}
	obs.StoragePagesRead.Inc()
	obs.StorageBytesRead.Add(size)
	return out[:len(out)+int(size)], nil
}

// checkSlot returns an error unless size bytes at byte off of page id lie
// within the payload of a page of the store.
func (p *pager) checkSlot(id, off, size int64) error {
	if count := p.pageCount.Load(); id < 1 || id >= count {
		return fmt.Errorf("storage: read of page %d outside store (pages: %d)", id, count)
	}
	if off < pageHeaderSize || size <= 0 || size > PageSize-off {
		return fmt.Errorf("storage: slot of %d bytes at offset %d outside page %d", size, off, id)
	}
	return nil
}

// chainLimit is how many pages a walk from a chain's first page may visit:
// as many as size bytes fill when size is known (non-zero), else every
// page of the store. A walk past it has met a cycle, or a link corruption
// made, and stops with an error instead of looping.
func (p *pager) chainLimit(size int64) int64 {
	if size > 0 {
		return (size + pagePayload - 1) / pagePayload
	}
	return p.pageCount.Load()
}

// checkChainSize returns an error unless size is a length a chain of the
// store could hold (0 = unknown), so a corrupt size neither sizes a buffer
// nor bounds a walk.
func (p *pager) checkChainSize(first, size int64) error {
	if size < 0 || size > p.pageCount.Load()*pagePayload {
		return fmt.Errorf("storage: record chain at page %d cannot hold %d bytes", first, size)
	}
	return nil
}

// chainPages walks a record chain and returns every page id in it.
func (p *pager) chainPages(first int64) ([]int64, error) {
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	var pages []int64
	limit := p.chainLimit(0)
	for id := first; id != 0; {
		if int64(len(pages)) == limit {
			return nil, fmt.Errorf("storage: record chain at page %d runs past %d pages", first, limit)
		}
		next, _, err := p.readPageHeaderInto(id, *bufp)
		if err != nil {
			return nil, err
		}
		pages = append(pages, id)
		id = next
	}
	return pages, nil
}

// readSpan is the buffer room reading a record takes: a packed slot its
// size, a chain of known size its pages whole (appendRun reads them with
// their headers), a chain of unknown size none (the walk grows the buffer
// as it goes).
func readSpan(off, size int64) int64 {
	if off != 0 || size <= 0 {
		return max(size, 0)
	}
	return (size + pagePayload - 1) / pagePayload * PageSize
}

// readRecord loads a record into a buffer of its own, sized for its
// readSpan so the read never regrows it: the chain starting at page when
// off is 0, else the packed slot at byte off of page. size is the
// record's length, or 0 for a chain whose length is unknown (the catalog
// record).
func (p *pager) readRecord(page, off, size int64) ([]byte, error) {
	if off != 0 {
		return p.appendSlots(nil, page, off, size)
	}
	if err := p.checkChainSize(page, size); err != nil {
		return nil, err
	}
	return p.appendChain(make([]byte, 0, readSpan(off, size)), page, size)
}

// appendChain appends a record chain's bytes to out and returns the
// extended buffer. A chain of known size is read from its first page with
// one ReadAt (appendRun), which takes every page while the chain runs on
// consecutive pages; the rest of the chain, and a chain of unknown size,
// is walked a page at a time through a pooled page. out never regrows
// when its spare capacity holds the record's readSpan. size is the
// record's length, or 0 when unknown; a chain of another length, or one
// that walks past chainLimit(size) pages, is an error.
func (p *pager) appendChain(out []byte, first, size int64) ([]byte, error) {
	if err := p.checkChainSize(first, size); err != nil {
		return nil, err
	}
	start := len(out)
	limit := p.chainLimit(size)
	id, n := first, int64(0)
	if size > 0 {
		var err error
		if out, id, n, err = p.appendRun(out, first, limit); err != nil {
			return nil, err
		}
	}
	if id != 0 {
		bufp := pagePool.Get().(*[]byte)
		defer pagePool.Put(bufp)
		for page := *bufp; id != 0; n++ {
			if n == limit {
				return nil, fmt.Errorf("storage: record chain at page %d runs past %d pages", first, limit)
			}
			next, used, err := p.readPageHeaderInto(id, page)
			if err != nil {
				return nil, err
			}
			out = append(out, page[pageHeaderSize:pageHeaderSize+used]...)
			id = next
		}
	}
	switch got := int64(len(out) - start); {
	case got == 0:
		return nil, fmt.Errorf("storage: empty record chain at page %d", first)
	case size > 0 && got != size:
		return nil, fmt.Errorf("storage: record chain at page %d holds %d bytes, want %d", first, got, size)
	}
	return out, nil
}

// appendRun reads up to pages pages from page first on, none past the
// store's last page, with one ReadAt into out's spare capacity (grown if
// short), and appends the payload of those that begin first's chain: each
// header is checked as the walk checks it (pageHeader), and the run goes
// on while a page's next names the page after it. It returns the extended
// buffer, the page the chain goes on at (0 once it has ended) and how
// many of its pages the run took. A read cut short by the file's end (a
// page allocated but not yet written lies past it) takes the whole pages
// it got, and the walk reads on from there.
func (p *pager) appendRun(out []byte, first, pages int64) ([]byte, int64, int64, error) {
	pages = min(pages, p.pageCount.Load()-first)
	if first < 1 || pages < 1 {
		return out, first, 0, nil
	}
	out = slices.Grow(out, int(pages*PageSize))
	span := out[len(out) : len(out)+int(pages*PageSize)]
	got, err := p.f.ReadAt(span, first*PageSize)
	if err != nil && err != io.EOF {
		return nil, 0, 0, fmt.Errorf("storage: read page %d: %w", first, err)
	}
	obs.StoragePagesRead.Inc()
	obs.StorageBytesRead.Add(int64(got))
	w, whole := len(out), int64(got/PageSize)
	for i := int64(0); i < whole; i++ {
		id, page := first+i, span[i*PageSize:(i+1)*PageSize]
		next, used, err := pageHeader(id, page)
		if err != nil {
			return nil, 0, 0, err
		}
		w += copy(out[w:w+used], page[pageHeaderSize:pageHeaderSize+used])
		if next != id+1 {
			return out[:w], next, i + 1, nil
		}
	}
	return out[:w], first + whole, whole, nil
}

func (p *pager) sync() error {
	if err := p.writeHeader(); err != nil {
		return err
	}
	return p.f.Sync()
}

// fsync flushes the page file without touching the header (checkpoints
// order their own header write between two fsyncs).
func (p *pager) fsync() error {
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	return nil
}

func (p *pager) close() error {
	if err := p.writeHeader(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}
