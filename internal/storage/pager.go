// Package storage implements the persistent document store each PartiX
// node runs on: a paged single-file store with a free list, chained-page
// records, a collection catalog and a compact binary tree encoding that
// preserves node IDs (vertical fragments are joined back by ID, so the
// store must not lose them the way a plain XML serialization would).
//
// The layout is deliberately simple and classical:
//
//	page 0            header (magic, version, page count, free list,
//	                  catalog record pointer)
//	page 1..n         record pages, each [next int64][used uint16][data]
//
// A record (an encoded document, or the catalog itself) occupies a chain
// of pages. Deleting a record parks its pages on a pending-free list; they
// rejoin the on-disk free list only at the next checkpoint, and only once
// no snapshot reader pinned before the delete is still active. That
// discipline is what makes both crash recovery and MVCC reads work: a
// page reachable from the last checkpointed catalog, or from any pinned
// snapshot, is never rewritten. Mutating operations are serialized by a
// store-level mutex; durability is write-ahead logging with group-commit
// fsync (wal.go), with the catalog persisted by checkpoints.
package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"partix/internal/obs"
)

// PageSize is the fixed page size of a store file.
const PageSize = 4096

const (
	magic          = "PTXSTOR1"
	headerSize     = 8 + 8 + 8 + 8 // magic, pageCount, freeHead, catalogPage
	pageHeaderSize = 8 + 2         // next page id, used bytes
	pagePayload    = PageSize - pageHeaderSize
)

// pagePool recycles page-sized scratch buffers across record reads and
// writes; the query hot path reads one page buffer per chained page, so
// pooling removes a 4 KB allocation per page per document fetched.
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
	if string(buf[:8]) != magic {
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

// chainPages walks a record chain and returns every page id in it.
func (p *pager) chainPages(first int64) ([]int64, error) {
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	var pages []int64
	id := first
	for id != 0 {
		next, _, err := p.readPageHeaderInto(id, *bufp)
		if err != nil {
			return nil, err
		}
		pages = append(pages, id)
		id = next
	}
	return pages, nil
}

// readRecordSized loads a full record chain into an output buffer
// presized for the expected record length (the catalog knows every
// document's encoded size, so the hot read path never regrows).
func (p *pager) readRecordSized(first int64, size int) ([]byte, error) {
	return p.appendChain(make([]byte, 0, size), first)
}

// appendChain appends a record chain's bytes to out and returns the
// extended buffer. Each page is read straight into out's spare capacity
// when a whole page fits there, its payload then moved down over its
// header, and into a pooled page otherwise: out never regrows when its
// spare capacity holds the record, and a caller that leaves one page of
// headroom beyond the record's size reads it without touching the pool.
func (p *pager) appendChain(out []byte, first int64) ([]byte, error) {
	var pooled *[]byte
	defer func() {
		if pooled != nil {
			pagePool.Put(pooled)
		}
	}()
	start := len(out)
	id := first
	for id != 0 {
		page := out[len(out):cap(out)]
		if len(page) < PageSize {
			if pooled == nil {
				pooled = pagePool.Get().(*[]byte)
			}
			page = *pooled
		}
		next, used, err := p.readPageHeaderInto(id, page[:PageSize])
		if err != nil {
			return nil, err
		}
		out = append(out, page[pageHeaderSize:pageHeaderSize+used]...)
		id = next
	}
	if len(out) == start {
		return nil, fmt.Errorf("storage: empty record chain at page %d", first)
	}
	return out, nil
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
