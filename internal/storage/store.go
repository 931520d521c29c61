package storage

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/obs"
	"partix/internal/xmltree"
)

// ErrNotFound marks lookups of collections or documents that do not
// exist, so callers can tell "absent" from a real I/O or decode failure
// with errors.Is instead of treating every error as absence.
var ErrNotFound = errors.New("not found")

// docEntry locates one stored record.
type docEntry struct {
	Page int64 // first page of the record chain, or the packed page
	Off  int64 // byte offset of a packed record in Page; 0 = a chain
	Size int64 // encoded size in bytes
}

// catalog maps collection name → document name → location, plus named
// metadata records (index snapshots and the like). It is itself persisted
// as a record; the header points at it.
type catalog struct {
	Collections map[string]map[string]docEntry
	Meta        map[string]docEntry
}

// Options configure a store's durability behaviour.
type Options struct {
	// NoFsync appends WAL records without fsyncing them at commit.
	// Recovery still replays whatever reached the disk (torn tails are
	// truncated), but an acknowledged commit may be lost on a crash.
	// For benchmarks and tests that do not want to pay for durability.
	NoFsync bool

	// CheckpointBytes is the WAL size that triggers an asynchronous
	// checkpoint (persist catalog, truncate log, recycle freed pages).
	// 0 means the default (8 MiB); negative disables size-triggered
	// checkpoints, leaving them to explicit Sync/Close calls.
	CheckpointBytes int64
}

// defaultCheckpointBytes is the WAL size that triggers a background
// checkpoint when Options.CheckpointBytes is zero.
const defaultCheckpointBytes = 8 << 20

// pendingFree is a record chain, or a packed page whose last slot died,
// freed by a committed operation. Its pages return to the free list at the
// first checkpoint where no active read pin predates the freeing operation
// (pins taken later can no longer reach them through any snapshot).
type pendingFree struct {
	seq   uint64 // mutation sequence of the op that freed the pages; 0 = never visible
	pages []int64
}

// Store is a persistent XML document store: named collections of named
// documents over a single paged file, made durable by a write-ahead log.
// It is safe for concurrent use; readers never block behind writers'
// page I/O or fsyncs.
type Store struct {
	mu    sync.RWMutex
	pager *pager
	cat   catalog
	path  string
	opts  Options
	wal   *wal

	// mutSeq counts committed catalog mutations; read pins capture it so
	// the pending-free drain knows which freed chains are still visible
	// to an active snapshot.
	mutSeq  uint64
	pending []pendingFree

	// slots counts the live slots of each packed page: cataloged records
	// and staged ones not yet committed or aborted. A page is parked on
	// pending when its count drops to zero, unless it is the open page,
	// the one page new packed records are appended to (0 = none); it then
	// waits for its retirement (retireOpenLocked). openEnd is the open
	// page's first unused byte. Guarded by mu, rebuilt from the catalog at
	// open.
	slots   map[int64]int
	open    int64
	openEnd int64

	// totals holds each collection's document count and encoded bytes,
	// kept current with its catalog entries (CollectionStats). Guarded by
	// mu, rebuilt from the catalog at open.
	totals map[string]Stats

	// refs holds each collection's documents as a name-sorted []DocRef,
	// shared read-only by every snapshot taken until the collection's next
	// mutation. Every catalog mutation of a collection deletes its entry
	// (never edits the slice, so older snapshots keep what they saw); the
	// next snapshot rebuilds it once. Guarded by mu.
	refs map[string][]DocRef

	pinMu sync.Mutex
	pins  map[uint64]int // pinned mutSeq → active pin count

	// ckptMu serializes checkpoints (and Close) so the
	// catalog-write / header-write / log-truncate sequence is atomic with
	// respect to other checkpoints. It is taken before s.mu.
	ckptMu     sync.Mutex
	ckptQueued atomic.Bool
	closed     bool

	recovered int // WAL records replayed at Open (0 after a clean shutdown)
}

// Open opens (creating if needed) a store at path with default options:
// WAL on, fsync at commit.
func Open(path string) (*Store, error) {
	return OpenWith(path, Options{})
}

// OpenWith opens (creating if needed) a store at path. When the
// write-ahead log holds records — the previous process crashed after
// acknowledged commits — they are replayed on top of the
// last checkpointed catalog and a fresh checkpoint is taken, so the store
// comes up with every acknowledged commit and a truncated log.
func OpenWith(path string, opts Options) (*Store, error) {
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = defaultCheckpointBytes
	}
	p, err := openPager(path)
	if err != nil {
		return nil, err
	}
	s := &Store{
		pager: p, path: path, opts: opts,
		cat:  catalog{Collections: map[string]map[string]docEntry{}},
		refs: map[string][]DocRef{},
		pins: map[uint64]int{},
	}
	if p.catalog != 0 {
		data, err := p.readRecord(p.catalog, 0, 0)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("storage: load catalog: %w", err)
		}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s.cat); err != nil {
			p.close()
			return nil, fmt.Errorf("storage: decode catalog: %w", err)
		}
	}
	s.countCatalog()
	w, records, err := openWAL(path+".wal", opts.NoFsync)
	if err != nil {
		p.close()
		return nil, err
	}
	s.wal = w
	if len(records) == 0 {
		return s, nil
	}
	if err := s.recover(records); err != nil {
		w.close()
		p.close()
		return nil, err
	}
	return s, nil
}

// countCatalog rebuilds the live-slot counts and the collection totals
// from the catalog. An entry whose slot does not lie within a page of the
// store is not counted: reading it fails, and freeing it leaks its page
// rather than freeing a page it does not own.
func (s *Store) countCatalog() {
	s.slots, s.totals = map[int64]int{}, map[string]Stats{}
	for c, docs := range s.cat.Collections {
		st := Stats{Documents: len(docs)}
		for _, e := range docs {
			st.Bytes += e.Size
			if e.Off != 0 && s.pager.checkSlot(e.Page, e.Off, e.Size) == nil {
				s.slots[e.Page]++
			}
		}
		s.totals[c] = st
	}
}

// recover replays logged operations on top of the checkpointed catalog.
// The on-disk free list is rebuilt from reachability first: the crashed
// process may have consumed free pages (and parked others on its pending
// list) after the checkpoint, so neither the header's free list nor its
// page links can be trusted — but every page reachable from the
// checkpointed catalog is intact, by the deferred-free discipline.
func (s *Store) recover(records []walRecord) error {
	if err := s.rebuildFreeList(); err != nil {
		return fmt.Errorf("storage: recovery: %w", err)
	}
	for i, rec := range records {
		if err := s.applyWAL(rec); err != nil {
			return fmt.Errorf("storage: recovery: replay record %d: %w", i+1, err)
		}
	}
	s.recovered = len(records)
	obs.StorageWALReplayed.Add(int64(len(records)))
	// Checkpoint immediately: the replayed state becomes the new durable
	// baseline and the log is truncated, so a crash during the next run
	// replays only its own tail.
	return s.Checkpoint()
}

// rebuildFreeList re-derives the free list as every page not reachable
// from the catalog (documents, metadata, the catalog record itself): a
// chain's pages, walked, and a packed entry's one page, marked without a
// walk. This also reclaims pages leaked by a crash between a checkpoint's
// log truncation and its free-list maintenance, and the tail a crashed
// process appended to its open packed page, which no store reopens.
func (s *Store) rebuildFreeList() error {
	count := s.pager.pageCount.Load()
	reachable := make([]bool, count)
	mark := func(e docEntry) error {
		pages := []int64{e.Page}
		if e.Off == 0 {
			var err error
			if pages, err = s.pager.chainPages(e.Page); err != nil {
				return err
			}
		}
		for _, id := range pages {
			if id < 1 || id >= count {
				return fmt.Errorf("catalog references page %d outside store (pages: %d)", id, count)
			}
			reachable[id] = true
		}
		return nil
	}
	for _, docs := range s.cat.Collections {
		for _, e := range docs {
			if err := mark(e); err != nil {
				return err
			}
		}
	}
	for _, e := range s.cat.Meta {
		if err := mark(e); err != nil {
			return err
		}
	}
	if s.pager.catalog != 0 {
		if err := mark(docEntry{Page: s.pager.catalog}); err != nil {
			return err
		}
	}
	s.pager.freeHead = 0
	for id := count - 1; id >= 1; id-- {
		if !reachable[id] {
			if err := s.pager.freePage(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyWAL re-applies one logged operation. Replay is idempotent at this
// level: re-putting yields the same document, re-deleting an absent
// document is a no-op, so a log that survived a crash mid-truncation
// still converges to the correct state.
func (s *Store) applyWAL(rec walRecord) error {
	// Dropping a collection's shared refs is always safe (the next snapshot
	// rebuilds them), so it is done for every record, metadata included.
	delete(s.refs, rec.Collection)
	switch rec.Op {
	case walOpPut:
		pages, off, err := s.allocLocked(len(rec.Data))
		if err != nil {
			return err
		}
		if err := s.pager.writeAt(pages, off, rec.Data); err != nil {
			return err
		}
		s.putEntryLocked(rec.Collection, rec.Doc, docEntry{Page: pages[0], Off: off, Size: int64(len(rec.Data))})
	case walOpDelete:
		if _, ok := s.cat.Collections[rec.Collection][rec.Doc]; ok {
			s.deleteEntryLocked(rec.Collection, rec.Doc)
		}
	case walOpDrop:
		if _, ok := s.cat.Collections[rec.Collection]; ok {
			s.dropLocked(rec.Collection)
		}
	case walOpCreate:
		if s.cat.Collections[rec.Collection] == nil {
			s.cat.Collections[rec.Collection] = map[string]docEntry{}
		}
	case walOpMeta:
		if old, ok := s.cat.Meta[rec.Doc]; ok {
			delete(s.cat.Meta, rec.Doc)
			s.mutSeq++
			s.releaseLocked(old)
		}
		if len(rec.Data) == 0 {
			return nil
		}
		page, err := s.pager.writeRecord(rec.Data)
		if err != nil {
			return err
		}
		if s.cat.Meta == nil {
			s.cat.Meta = map[string]docEntry{}
		}
		s.cat.Meta[rec.Doc] = docEntry{Page: page, Size: int64(len(rec.Data))}
		s.mutSeq++
	default:
		return fmt.Errorf("unknown wal op %d", rec.Op)
	}
	return nil
}

// RecoveredMutations reports how many WAL records were replayed when the
// store was opened. Non-zero means the previous process did not shut down
// cleanly; derived state persisted alongside the catalog (such as the
// engine's index snapshot) may predate the replayed operations and must
// be rebuilt.
func (s *Store) RecoveredMutations() int { return s.recovered }

// releaseLocked gives up a record that a committed operation removed from
// the catalog, tagged with the current mutation sequence: a chain is
// parked on the pending-free list whole, a packed record gives up its
// slot. Callers hold s.mu. A chain whose headers cannot be walked, or a
// slot outside its page (which countCatalog did not count), is leaked
// rather than corrupting the free list; recovery's reachability rebuild
// reclaims it eventually.
func (s *Store) releaseLocked(e docEntry) {
	if e.Off != 0 {
		if s.pager.checkSlot(e.Page, e.Off, e.Size) == nil {
			s.releaseSlotLocked(e.Page)
		}
		return
	}
	pages, err := s.pager.chainPages(e.Page)
	if err != nil {
		return
	}
	s.pending = append(s.pending, pendingFree{seq: s.mutSeq, pages: pages})
}

// releaseSlotLocked gives up one slot of a packed page and parks the page
// once its last slot is gone, unless it is the open page. The page is
// tagged with the current mutation sequence, which no earlier death of
// one of its slots exceeds, so no pin that could read any of them lets it
// drain. A page without a count is leaked.
func (s *Store) releaseSlotLocked(page int64) {
	n, ok := s.slots[page]
	if !ok {
		return
	}
	if n > 1 {
		s.slots[page] = n - 1
		return
	}
	delete(s.slots, page)
	if page != s.open {
		s.pending = append(s.pending, pendingFree{seq: s.mutSeq, pages: []int64{page}})
	}
}

// allocLocked reserves room for a record of size bytes: a slot at the end
// of the open packed page when the record is small, opening a fresh packed
// page when the open one has no room left, and a chain of pages otherwise.
// off is the slot's byte offset in pages[0], or 0 for a chain. Callers
// hold s.mu; the room is theirs until they commit it or give it back.
func (s *Store) allocLocked(size int) (pages []int64, off int64, err error) {
	if size == 0 || size > packMax {
		pages, err := s.pager.allocRecordPages(size)
		return pages, 0, err
	}
	if s.open == 0 || int64(size) > PageSize-s.openEnd {
		s.retireOpenLocked()
		id, err := s.pager.allocPage()
		if err != nil {
			return nil, 0, err
		}
		s.open, s.openEnd = id, pageHeaderSize
	}
	off = s.openEnd
	s.openEnd += int64(size)
	s.slots[s.open]++
	return []int64{s.open}, off, nil
}

// retireOpenLocked closes the open packed page to further appends,
// parking it if none of its slots is live. Every checkpoint retires it, so
// the page the checkpointed catalog reaches is never appended to again.
func (s *Store) retireOpenLocked() {
	if s.open != 0 && s.slots[s.open] == 0 {
		s.pending = append(s.pending, pendingFree{seq: s.mutSeq, pages: []int64{s.open}})
	}
	s.open, s.openEnd = 0, 0
}

// putEntryLocked points a document at e, creating its collection if
// needed, and releases the record it replaces. It keeps the collection's
// totals and drops its shared refs. Callers hold s.mu.
func (s *Store) putEntryLocked(collection, name string, e docEntry) {
	docs := s.cat.Collections[collection]
	if docs == nil {
		docs = map[string]docEntry{}
		s.cat.Collections[collection] = docs
	}
	old, had := docs[name]
	docs[name] = e
	st := s.totals[collection]
	if had {
		st.Bytes -= old.Size
	} else {
		st.Documents++
	}
	st.Bytes += e.Size
	s.totals[collection] = st
	delete(s.refs, collection)
	s.mutSeq++
	if had {
		s.releaseLocked(old)
	}
}

// deleteEntryLocked removes a cataloged document and releases its record.
// Callers hold s.mu.
func (s *Store) deleteEntryLocked(collection, name string) {
	e := s.cat.Collections[collection][name]
	delete(s.cat.Collections[collection], name)
	st := s.totals[collection]
	st.Documents--
	st.Bytes -= e.Size
	s.totals[collection] = st
	delete(s.refs, collection)
	s.mutSeq++
	s.releaseLocked(e)
}

// dropLocked removes an existing collection and releases its records.
// Callers hold s.mu.
func (s *Store) dropLocked(collection string) {
	docs := s.cat.Collections[collection]
	delete(s.cat.Collections, collection)
	delete(s.totals, collection)
	delete(s.refs, collection)
	s.mutSeq++
	for _, e := range docs {
		s.releaseLocked(e)
	}
}

// acquirePinLocked registers a read pin at the current mutation sequence.
// Callers hold s.mu (read or write), which orders the pin against the
// drain in checkpointLocked.
func (s *Store) acquirePinLocked() *ReadPin {
	s.pinMu.Lock()
	seq := s.mutSeq
	s.pins[seq]++
	s.pinMu.Unlock()
	return &ReadPin{store: s, seq: seq}
}

// ReadPin keeps every record chain that was cataloged at pin time readable
// — replaced and deleted versions included — until Close. Queries hold one
// for the duration of a snapshot read.
type ReadPin struct {
	store *Store
	seq   uint64
	once  sync.Once
}

// Close releases the pin. Safe to call more than once.
func (p *ReadPin) Close() {
	p.once.Do(func() {
		s := p.store
		s.pinMu.Lock()
		if n := s.pins[p.seq]; n <= 1 {
			delete(s.pins, p.seq)
		} else {
			s.pins[p.seq] = n - 1
		}
		s.pinMu.Unlock()
	})
}

// minActivePin returns the oldest pinned mutation sequence, or ok=false
// when no pin is active.
func (s *Store) minActivePin() (uint64, bool) {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	var min uint64
	found := false
	for seq := range s.pins {
		if !found || seq < min {
			min = seq
			found = true
		}
	}
	return min, found
}

// drainPendingLocked returns eligible pending-free chains to the free
// list: a chain freed at sequence F is eligible once every active pin was
// taken at or after F (force drains everything — shutdown only, when no
// new allocation can follow). Callers hold s.mu.
func (s *Store) drainPendingLocked(force bool) error {
	if len(s.pending) == 0 {
		return nil
	}
	minPin, pinned := s.minActivePin()
	kept := s.pending[:0]
	for _, pf := range s.pending {
		if !force && pinned && pf.seq > minPin {
			kept = append(kept, pf)
			continue
		}
		for _, id := range pf.pages {
			if err := s.pager.freePage(id); err != nil {
				s.pending = append(kept, s.pending...) // keep state sane
				return err
			}
		}
	}
	s.pending = kept
	return nil
}

// Close checkpoints (persisting the catalog and truncating the log) and
// closes the files.
func (s *Store) Close() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	s.mu.Lock()
	if err := s.checkpointLocked(); err != nil {
		firstErr = err
	}
	// Recycle every still-pending chain: no allocation can follow, so
	// even chains covered by a (leaked) pin are safe to free now.
	if err := s.drainPendingLocked(true); err != nil && firstErr == nil {
		firstErr = err
	}
	s.mu.Unlock()
	if err := s.wal.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.pager.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Sync checkpoints: every committed mutation and the catalog itself are
// durable on return, and the write-ahead log is truncated.
func (s *Store) Sync() error {
	if err := s.Checkpoint(); err != nil {
		return err
	}
	// Match the historical contract: Sync leaves the header synced too.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pager.sync()
}

// WALStatus reports the write-ahead log's durability lag for health
// checks: bytes accumulated since the last checkpoint truncated the
// log, the highest appended and fsynced sequences, and when the last
// fsync happened.
type WALStatus struct {
	NoFsync   bool
	SizeBytes int64  // log bytes since the last checkpoint (framing included)
	LastSeq   uint64 // sequence of the last appended record
	SyncedSeq uint64 // highest sequence known durable
	LastFsync time.Time
}

// WALStatus returns the current write-ahead log durability lag.
func (s *Store) WALStatus() WALStatus {
	size, last, synced, lastSync := s.wal.status()
	size -= walHeaderSize
	if size < 0 {
		size = 0
	}
	return WALStatus{
		NoFsync:   s.opts.NoFsync,
		SizeBytes: size,
		LastSeq:   last,
		SyncedSeq: synced,
		LastFsync: lastSync,
	}
}

// Checkpoint persists the catalog (write-new-then-free-old), truncates
// the WAL and recycles pages freed by operations no active snapshot can
// still see. Serialized with other checkpoints; brief on the store lock.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.closed {
		return nil
	}
	// Flush the bulk of the page writes before taking the store lock so
	// writers and readers are blocked only for the catalog write and the
	// small delta fsync below.
	if !s.opts.NoFsync {
		if err := s.pager.fsync(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is the core checkpoint sequence. Callers hold s.mu and
// s.ckptMu. Order matters for crash safety:
//
//  0. retire the open packed page (retireOpenLocked);
//  1. write the new catalog record into fresh pages (old one untouched);
//  2. fsync — catalog record and any residual page writes are durable;
//  3. point the header at the new catalog and fsync again — the switch;
//  4. truncate the WAL — everything it held is covered by the catalog;
//  5. only now free the old catalog record and drain the pending list.
//
// A crash before 3 recovers from the old catalog + full log; after 3,
// from the new catalog (+ log until 4 completes, replay being
// idempotent); pages freed in 5 were unreachable from the new catalog
// already, so a crash there at worst leaks until the next recovery GC.
func (s *Store) checkpointLocked() error {
	s.retireOpenLocked()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s.cat); err != nil {
		return fmt.Errorf("storage: encode catalog: %w", err)
	}
	oldCatalog := s.pager.catalog
	id, err := s.pager.writeRecord(buf.Bytes())
	if err != nil {
		return err
	}
	coveredSeq := s.wal.lastSeq()
	if !s.opts.NoFsync {
		if err := s.pager.fsync(); err != nil {
			return err
		}
	}
	s.pager.catalog = id
	if err := s.pager.writeHeader(); err != nil {
		return err
	}
	if !s.opts.NoFsync {
		if err := s.pager.fsync(); err != nil {
			return err
		}
	}
	if err := s.wal.reset(coveredSeq); err != nil {
		return err
	}
	if oldCatalog != 0 {
		// The catalog record is read only at Open; no pin can reference
		// it, so it recycles immediately (seq 0 = always drainable).
		if pages, err := s.pager.chainPages(oldCatalog); err == nil {
			s.pending = append(s.pending, pendingFree{seq: 0, pages: pages})
		}
	}
	obs.StorageCheckpoints.Inc()
	return s.drainPendingLocked(false)
}

// maybeCheckpoint starts a background checkpoint when the WAL has grown
// past the configured threshold. At most one is queued at a time.
func (s *Store) maybeCheckpoint() {
	if s.opts.CheckpointBytes <= 0 {
		return
	}
	if s.wal.sizeNow() < s.opts.CheckpointBytes {
		return
	}
	if !s.ckptQueued.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.ckptQueued.Store(false)
		// An error here is not lost: the WAL keeps everything, and the
		// next explicit Sync/Close surfaces the failure.
		s.Checkpoint()
	}()
}

// CreateCollection declares an empty collection; it is a no-op when the
// collection exists. The declaration is logged (and durable at return,
// like every mutation) so an empty collection survives a crash.
func (s *Store) CreateCollection(name string) error {
	s.mu.Lock()
	if s.cat.Collections[name] != nil {
		s.mu.Unlock()
		return nil
	}
	tok, err := s.logLocked(walRecord{Op: walOpCreate, Collection: name})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.cat.Collections[name] = map[string]docEntry{}
	delete(s.refs, name)
	s.mu.Unlock()
	s.maybeCheckpoint()
	return s.WaitDurable(tok)
}

// logLocked appends a WAL record (no fsync) under s.mu, returning the
// commit token WaitDurable redeems.
func (s *Store) logLocked(rec walRecord) (CommitToken, error) {
	seq, err := s.wal.append(rec)
	if err != nil {
		return CommitToken{}, err
	}
	return CommitToken{seq: seq}, nil
}

// CommitToken identifies a committed (applied and logged) mutation whose
// durability can be awaited with WaitDurable.
type CommitToken struct {
	seq uint64
}

// WaitDurable blocks until the mutation behind tok is fsynced, batching
// into the group commit. A zero token, or a store with NoFsync, returns
// immediately.
func (s *Store) WaitDurable(tok CommitToken) error {
	return s.wal.commit(tok.seq)
}

// DropCollection deletes a collection and all its documents.
func (s *Store) DropCollection(name string) error {
	tok, err := s.DropCollectionNoSync(name)
	if err != nil {
		return err
	}
	return s.WaitDurable(tok)
}

// DropCollectionNoSync commits the drop without waiting for durability;
// the returned token lets the caller group the fsync.
func (s *Store) DropCollectionNoSync(name string) (CommitToken, error) {
	s.mu.Lock()
	if _, ok := s.cat.Collections[name]; !ok {
		s.mu.Unlock()
		return CommitToken{}, fmt.Errorf("storage: collection %q does not exist", name)
	}
	tok, err := s.logLocked(walRecord{Op: walOpDrop, Collection: name})
	if err != nil {
		s.mu.Unlock()
		return CommitToken{}, err
	}
	s.dropLocked(name)
	s.mu.Unlock()
	s.maybeCheckpoint()
	return tok, nil
}

// StagedDoc is a document whose record is written but not yet visible:
// CommitStaged publishes it, AbortStaged gives its room back. Staging
// happens outside the store's critical section, so concurrent writers
// overlap their page I/O and commit is an in-memory operation plus one log
// append.
type StagedDoc struct {
	collection string
	name       string
	data       []byte
	pages      []int64 // the chain, or the packed page
	off        int64   // the packed slot's offset in pages[0]; 0 = a chain
}

// StageDocument encodes doc and writes its record, into a packed slot or
// a fresh chain (allocLocked), without publishing it.
func (s *Store) StageDocument(collection string, doc *xmltree.Document) (*StagedDoc, error) {
	data, err := EncodeDocument(doc)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	pages, off, err := s.allocLocked(len(data))
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	st := &StagedDoc{collection: collection, name: doc.Name, data: data, pages: pages, off: off}
	if err := s.pager.writeAt(pages, off, data); err != nil {
		s.AbortStaged(st)
		return nil, err
	}
	return st, nil
}

// CommitStaged publishes a staged document: the write-ahead record is
// appended first, then the catalog entry flips to the new record and any
// replaced one is released for deferred recycling — so an error at any
// point leaves the previous version fully intact and readable.
func (s *Store) CommitStaged(st *StagedDoc) (CommitToken, error) {
	s.mu.Lock()
	tok, err := s.logLocked(walRecord{
		Op: walOpPut, Collection: st.collection, Doc: st.name, Data: st.data,
	})
	if err != nil {
		s.mu.Unlock()
		return CommitToken{}, err
	}
	s.putEntryLocked(st.collection, st.name, docEntry{Page: st.pages[0], Off: st.off, Size: int64(len(st.data))})
	s.mu.Unlock()
	s.maybeCheckpoint()
	return tok, nil
}

// AbortStaged gives a staged document's room back. A chain was never
// visible to any reader, so its pages are immediately drainable (seq 0); a
// packed slot is given up like a dead one (releaseSlotLocked), since other
// slots of its page may have been visible.
func (s *Store) AbortStaged(st *StagedDoc) {
	if st == nil || len(st.pages) == 0 {
		return
	}
	s.mu.Lock()
	if st.off != 0 {
		s.releaseSlotLocked(st.pages[0])
	} else {
		s.pending = append(s.pending, pendingFree{seq: 0, pages: st.pages})
	}
	st.pages = nil
	s.mu.Unlock()
}

// PutDocument stores (or replaces) a document in a collection, creating
// the collection if needed. The document is durable when PutDocument
// returns (unless the store runs with NoFsync).
func (s *Store) PutDocument(collection string, doc *xmltree.Document) error {
	st, err := s.StageDocument(collection, doc)
	if err != nil {
		return err
	}
	tok, err := s.CommitStaged(st)
	if err != nil {
		s.AbortStaged(st)
		return err
	}
	return s.WaitDurable(tok)
}

// GetDocument loads and decodes a document. Decoding happens on every call
// — the per-tree parse cost the evaluation section of the paper discusses.
func (s *Store) GetDocument(collection, name string) (*xmltree.Document, error) {
	data, err := s.GetDocumentRaw(collection, name)
	if err != nil {
		return nil, err
	}
	return DecodeDocument(name, data)
}

// GetDocumentRaw returns the encoded bytes of a document (used by the wire
// protocol to ship documents without a decode/encode round trip). The
// record is read under a pin, not the store lock, so a large read never
// blocks writers and a concurrent delete cannot recycle the pages mid-read.
func (s *Store) GetDocumentRaw(collection, name string) ([]byte, error) {
	s.mu.RLock()
	e, err := s.lookupLocked(collection, name)
	if err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	pin := s.acquirePinLocked()
	s.mu.RUnlock()
	defer pin.Close()
	return s.pager.readRecord(e.Page, e.Off, e.Size)
}

func (s *Store) lookupLocked(collection, name string) (docEntry, error) {
	docs, ok := s.cat.Collections[collection]
	if !ok {
		return docEntry{}, fmt.Errorf("storage: collection %q does not exist: %w", collection, ErrNotFound)
	}
	e, ok := docs[name]
	if !ok {
		return docEntry{}, fmt.Errorf("storage: document %q not in collection %q: %w", name, collection, ErrNotFound)
	}
	return e, nil
}

// DocRef locates one document inside a snapshot: its record is the chain
// starting at Page when Off is 0, else the Size bytes at byte Off of the
// packed page Page.
type DocRef struct {
	Name string
	Page int64
	Off  int64
	Size int64
}

// CollectionSnapshot is an immutable view of one collection: the document
// set exactly as it was at snapshot time, readable via ReadRef regardless
// of concurrent replaces, deletes or drops. Close it when done so the pages
// it pins can be recycled.
type CollectionSnapshot struct {
	// Refs is the document set sorted by name. It is shared, read-only, by
	// every snapshot of the collection taken between two of its mutations:
	// callers must not modify it.
	Refs []DocRef
	pin  *ReadPin
}

// Close releases the snapshot's pin.
func (cs *CollectionSnapshot) Close() {
	if cs != nil && cs.pin != nil {
		cs.pin.Close()
	}
}

// SnapshotCollection captures a consistent, pinned view of a collection.
// It shares the collection's sorted refs; only the first snapshot after a
// mutation builds them, under the write lock.
func (s *Store) SnapshotCollection(name string) (*CollectionSnapshot, error) {
	s.mu.RLock()
	if refs, ok := s.refs[name]; ok {
		pin := s.acquirePinLocked()
		s.mu.RUnlock()
		return &CollectionSnapshot{Refs: refs, pin: pin}, nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	refs, err := s.sortedRefsLocked(name)
	if err != nil {
		return nil, err
	}
	return &CollectionSnapshot{Refs: refs, pin: s.acquirePinLocked()}, nil
}

// sortedRefsLocked returns the collection's shared sorted refs, building
// them from the catalog if a mutation dropped them. Callers hold s.mu
// exclusively.
func (s *Store) sortedRefsLocked(name string) ([]DocRef, error) {
	if refs, ok := s.refs[name]; ok {
		return refs, nil
	}
	docs, ok := s.cat.Collections[name]
	if !ok {
		return nil, fmt.Errorf("storage: collection %q does not exist", name)
	}
	refs := make([]DocRef, 0, len(docs))
	for dn, e := range docs {
		refs = append(refs, DocRef{Name: dn, Page: e.Page, Off: e.Off, Size: e.Size})
	}
	slices.SortFunc(refs, func(a, b DocRef) int { return strings.Compare(a.Name, b.Name) })
	s.refs[name] = refs
	return refs, nil
}

// ReadRef reads a snapshot document's encoded bytes into a buffer of its
// own. Valid only while the snapshot it came from is open.
func (s *Store) ReadRef(ref DocRef) ([]byte, error) {
	return s.pager.readRecord(ref.Page, ref.Off, ref.Size)
}

// ReadSpan is the buffer room ReadRefs takes to read refs: a packed
// record's size, and a chained record's pages whole.
func ReadSpan(refs []DocRef) int {
	n := int64(0)
	for _, r := range refs {
		n += readSpan(r.Off, r.Size)
	}
	return int(n)
}

// stackRefs is how many refs ReadRefs orders with scratch on the stack:
// an engine scan's chunk at most.
const stackRefs = 64

// ReadRefs appends the encoded bytes of snapshot documents to buf and
// sets recs[i] to refs[i]'s record, exactly its Size bytes. It orders the
// refs by their place in the store file (page, then offset), so refs
// whose packed records sit back to back in one page are read with one
// read whatever their order in refs; a chained record whose pages are
// consecutive is one read too. The reads go in the refs order of the
// first record each serves, so a bad ref fails the call only after the
// reads the refs before it need. buf never regrows when its spare
// capacity holds ReadSpan(refs) bytes. The records are valid only while
// the snapshot the refs came from is open (the pin keeps their pages
// stable); no store lock is taken.
func (s *Store) ReadRefs(buf []byte, refs []DocRef, recs [][]byte) ([]byte, error) {
	var (
		orderStack [stackRefs]int32
		startStack [stackRefs]int
		order      = orderStack[:0]
		starts     = startStack[:0]
	)
	if len(refs) > stackRefs {
		order, starts = make([]int32, 0, len(refs)), make([]int, 0, len(refs))
	}
	for i := range refs {
		order = append(order, int32(i))
		starts = append(starts, -1)
	}
	// order: refs by file position (page, then offset), ties by index.
	byPlace := func(a, b int32) int {
		ra, rb := &refs[a], &refs[b]
		return cmp.Or(cmp.Compare(ra.Page, rb.Page), cmp.Compare(ra.Off, rb.Off), cmp.Compare(a, b))
	}
	slices.SortFunc(order, byPlace)
	for i, r := range refs {
		if starts[i] >= 0 {
			continue
		}
		// The run holding ref i: its neighbours in file order whose
		// records touch.
		k, _ := slices.BinarySearchFunc(order, int32(i), byPlace)
		lo, hi := k, k+1
		for lo > 0 && adjacentSlots(refs[order[lo-1]], refs[order[lo]]) {
			lo--
		}
		for hi < len(order) && adjacentSlots(refs[order[hi-1]], refs[order[hi]]) {
			hi++
		}
		run, at := order[lo:hi], len(buf)
		var err error
		if r.Off == 0 {
			buf, err = s.pager.appendChain(buf, r.Page, r.Size)
		} else {
			first, size := refs[run[0]], int64(0)
			for _, j := range run {
				size += refs[j].Size
			}
			buf, err = s.pager.appendSlots(buf, first.Page, first.Off, size)
		}
		if err != nil {
			return nil, err
		}
		for _, j := range run {
			starts[j] = at
			at += int(refs[j].Size)
		}
	}
	for i, r := range refs {
		recs[i] = buf[starts[i] : starts[i]+int(r.Size)]
	}
	return buf, nil
}

// adjacentSlots reports whether b's packed record starts where a's ends,
// within one page.
func adjacentSlots(a, b DocRef) bool {
	return a.Off != 0 && a.Page == b.Page && a.Size > 0 && b.Size > 0 &&
		b.Off == a.Off+a.Size && b.Off+b.Size <= PageSize
}

// DeleteDocument removes a document, durably.
func (s *Store) DeleteDocument(collection, name string) error {
	tok, err := s.DeleteDocumentNoSync(collection, name)
	if err != nil {
		return err
	}
	return s.WaitDurable(tok)
}

// DeleteDocumentNoSync commits the delete without waiting for durability;
// the returned token lets the caller group the fsync.
func (s *Store) DeleteDocumentNoSync(collection, name string) (CommitToken, error) {
	s.mu.Lock()
	if _, err := s.lookupLocked(collection, name); err != nil {
		s.mu.Unlock()
		return CommitToken{}, err
	}
	tok, err := s.logLocked(walRecord{Op: walOpDelete, Collection: collection, Doc: name})
	if err != nil {
		s.mu.Unlock()
		return CommitToken{}, err
	}
	s.deleteEntryLocked(collection, name)
	s.mu.Unlock()
	s.maybeCheckpoint()
	return tok, nil
}

// Collections returns the collection names, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.cat.Collections))
	for name := range s.cat.Collections {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Documents returns the document names of a collection, sorted.
func (s *Store) Documents(collection string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	docs, ok := s.cat.Collections[collection]
	if !ok {
		return nil, fmt.Errorf("storage: collection %q does not exist", collection)
	}
	out := make([]string, 0, len(docs))
	for name := range docs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// HasCollection reports whether a collection exists.
func (s *Store) HasCollection(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.cat.Collections[name]
	return ok
}

// Stats summarizes a collection: document count and stored bytes.
type Stats struct {
	Documents int
	Bytes     int64
}

// CollectionStats returns size statistics for a collection, in O(1): the
// totals are kept current with the catalog.
func (s *Store) CollectionStats(collection string) (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.cat.Collections[collection]; !ok {
		return Stats{}, fmt.Errorf("storage: collection %q does not exist", collection)
	}
	return s.totals[collection], nil
}

// PutMeta stores (or replaces) a named metadata record — opaque bytes the
// engine uses for persisted index snapshots. Metadata lives in the same
// paged file as documents and is logged like any other mutation; storing
// empty deletes the record.
func (s *Store) PutMeta(key string, data []byte) error {
	s.mu.Lock()
	_, had := s.cat.Meta[key]
	if !had && len(data) == 0 {
		s.mu.Unlock()
		return nil // deleting an absent record: nothing to log or do
	}
	tok, err := s.logLocked(walRecord{Op: walOpMeta, Doc: key, Data: data})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	var page int64
	if len(data) > 0 {
		// Write the new record before dropping the old entry so a write
		// failure leaves the previous metadata intact.
		page, err = s.pager.writeRecord(data)
		if err != nil {
			s.mu.Unlock()
			return err
		}
	}
	if had {
		old := s.cat.Meta[key]
		delete(s.cat.Meta, key)
		s.mutSeq++
		s.releaseLocked(old)
	}
	if len(data) > 0 {
		if s.cat.Meta == nil {
			s.cat.Meta = map[string]docEntry{}
		}
		s.cat.Meta[key] = docEntry{Page: page, Size: int64(len(data))}
		s.mutSeq++
	}
	s.mu.Unlock()
	s.maybeCheckpoint()
	return s.WaitDurable(tok)
}

// GetMeta loads a metadata record; ok is false when the key is absent.
func (s *Store) GetMeta(key string) (data []byte, ok bool, err error) {
	s.mu.RLock()
	e, present := s.cat.Meta[key]
	if !present {
		s.mu.RUnlock()
		return nil, false, nil
	}
	pin := s.acquirePinLocked()
	s.mu.RUnlock()
	defer pin.Close()
	data, err = s.pager.readRecord(e.Page, e.Off, e.Size)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// LoadCollection stores every document of c under the collection name.
// Documents are committed individually but fsynced once at the end (one
// group commit for the whole load).
func (s *Store) LoadCollection(c *xmltree.Collection) error {
	if err := s.CreateCollection(c.Name); err != nil {
		return err
	}
	var last CommitToken
	for _, d := range c.Docs {
		st, err := s.StageDocument(c.Name, d)
		if err != nil {
			return err
		}
		tok, err := s.CommitStaged(st)
		if err != nil {
			s.AbortStaged(st)
			return err
		}
		last = tok
	}
	return s.WaitDurable(last)
}

// ReadCollection decodes every document of a collection, sorted by name.
func (s *Store) ReadCollection(name string) (*xmltree.Collection, error) {
	snap, err := s.SnapshotCollection(name)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	c := xmltree.NewCollection(name)
	for _, ref := range snap.Refs {
		data, err := s.ReadRef(ref)
		if err != nil {
			return nil, err
		}
		d, err := DecodeDocument(ref.Name, data)
		if err != nil {
			return nil, err
		}
		c.Add(d)
	}
	return c, nil
}
