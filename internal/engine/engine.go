// Package engine implements the sequential XML DBMS a PartiX node runs —
// the role eXist plays in the paper (Section 4: the only requirement on a
// node DBMS is that it processes XQuery). It combines the paged document
// store, an inverted text index used to prune candidate documents (eXist
// "automatically created [indexes] to speed up text search operations and
// path expressions evaluation", Section 5), and the XQuery evaluator.
//
// Documents are decoded from storage on every query execution, a chunk
// of candidates at a time on the querying goroutine; there is no
// parsed-tree cache. That per-tree pre-processing cost is exactly the
// effect the paper measures when it compares many-small-documents against
// few-large-documents databases.
//
// A compiled query carries a projection (xquery.Hint.Keep): every
// candidate's record is still read and validated in full, but only the
// part of the tree the query reads is built.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/lru"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Options configure a DB.
type Options struct {
	// DisableIndexes turns off index-assisted candidate pruning,
	// index-only answering and the planner statistics' path table; every
	// query then scans all documents of its collections. It is the
	// index-off reference the differential tests compare indexed answers
	// against.
	DisableIndexes bool

	// WALNoFsync keeps the log but skips the commit-time fsync, trading
	// crash durability for write latency (benchmarks, bulk loads).
	WALNoFsync bool

	// CheckpointBytes is the WAL size that triggers a background catalog
	// checkpoint. 0 uses the storage default (8 MiB); negative disables
	// size-triggered checkpoints.
	CheckpointBytes int64
}

// DB is one sequential XML database instance.
type DB struct {
	opts  Options
	store *storage.Store

	mu   sync.RWMutex
	idx  map[string]*docIndex // collection → indexes
	cols map[string]*colState // collection → write lock + seqlock

	stats    liveStats
	heat     heatState                // per-collection workload heat, see heat.go
	prepared *lru.Cache[prepKey, any] // prepared texts, see prepare.go

	// subs are the OnCommit subscribers, replaced whole under subsMu so a
	// commit reads them without a lock.
	subsMu sync.Mutex
	subs   atomic.Pointer[[]*commitSub]
}

// colState is one collection's write serialization and read-side seqlock.
//
// Writers hold writeMu for the whole store-commit + index-update sequence,
// so the WAL order and the index order always agree. Around that sequence
// they bump seq to odd and back to even; a query validates that seq was
// even and unchanged across its snapshot + candidate capture, retrying (or
// finally taking writeMu) otherwise. The collection's mutation generation
// — the coordinator's plan- and statistics-cache key — is seq >> 1.
type colState struct {
	writeMu sync.Mutex
	seq     atomic.Uint64
}

// colFor returns (creating if needed) the collection's colState.
func (db *DB) colFor(collection string) *colState {
	db.mu.RLock()
	cs := db.cols[collection]
	db.mu.RUnlock()
	if cs != nil {
		return cs
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if cs = db.cols[collection]; cs == nil {
		cs = &colState{}
		db.cols[collection] = cs
	}
	return cs
}

// indexFor returns (creating if needed) the collection's index.
func (db *DB) indexFor(collection string) *docIndex {
	db.mu.RLock()
	ix := db.idx[collection]
	db.mu.RUnlock()
	if ix != nil {
		return ix
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if ix = db.idx[collection]; ix == nil {
		ix = newDocIndex()
		db.idx[collection] = ix
	}
	return ix
}

// liveStats holds the engine counters as atomics so concurrent queries
// flushing into them never race with Stats()/ResetStats() snapshots.
type liveStats struct {
	queries       atomic.Int64
	compiled      atomic.Int64
	docsDecoded   atomic.Int64
	docsPruned    atomic.Int64
	rangePruned   atomic.Int64
	indexOnlyHits atomic.Int64
	bytesDecoded  atomic.Int64
}

// Stats counts the engine's work, for tests and ablation benchmarks.
type Stats struct {
	Queries       int64 // queries executed
	Compiled      int64 // of Queries, executed by the compiled vectorized pipeline
	DocsDecoded   int64 // documents decoded (parsed) during queries
	DocsPruned    int64 // documents skipped thanks to index hints
	RangePruned   int64 // of DocsPruned, documents eliminated by value-index comparisons
	IndexOnlyHits int64 // count()/exists()/empty() folds decided from an exact candidate list, decoding nothing
	BytesDecoded  int64 // record bytes the decoder walked during queries, skipped subtrees excluded
}

// Add accumulates o into s (for aggregating counters across nodes).
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.Compiled += o.Compiled
	s.DocsDecoded += o.DocsDecoded
	s.DocsPruned += o.DocsPruned
	s.RangePruned += o.RangePruned
	s.IndexOnlyHits += o.IndexOnlyHits
	s.BytesDecoded += o.BytesDecoded
}

// Open opens (creating if necessary) a database at path. Indexes are
// loaded from the persisted snapshot when one exists (it is written
// together with the catalog on Sync/Close, so the two are always
// mutually consistent); otherwise they are rebuilt by scanning the
// stored documents.
func Open(path string, opts Options) (*DB, error) {
	st, err := storage.OpenWith(path, storage.Options{
		NoFsync:         opts.WALNoFsync,
		CheckpointBytes: opts.CheckpointBytes,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		opts: opts, store: st,
		idx: map[string]*docIndex{}, cols: map[string]*colState{},
		heat:     heatState{cols: map[string]*colHeat{}},
		prepared: newPrepareCache(),
	}
	// A persisted index snapshot is trustworthy only after a clean
	// shutdown: when the store replayed WAL records at open, the catalog is
	// newer than any snapshot saved alongside it, so rebuild by scanning.
	if st.RecoveredMutations() == 0 && db.loadIndexSnapshot() {
		return db, nil
	}
	for _, col := range st.Collections() {
		names, err := st.Documents(col)
		if err != nil {
			st.Close()
			return nil, err
		}
		ix := newDocIndex()
		batch := make([]*xmltree.Document, 0, rebuildBatch)
		for _, name := range names {
			doc, err := st.GetDocument(col, name)
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("engine: rebuild index for %s/%s: %w", col, name, err)
			}
			batch = append(batch, doc)
			if len(batch) == rebuildBatch {
				ix.bulkAdd(batch, nil)
				batch = batch[:0]
			}
		}
		ix.bulkAdd(batch, nil)
		db.idx[col] = ix
	}
	return db, nil
}

// rebuildBatch bounds how many decoded documents a rebuild scan holds in
// memory between bulkAdd calls.
const rebuildBatch = 256

// Close persists the index snapshot and closes the store.
func (db *DB) Close() error {
	if err := db.saveIndexSnapshot(); err != nil {
		db.store.Close()
		return err
	}
	return db.store.Close()
}

// Sync persists the index snapshot and flushes the store to disk.
func (db *DB) Sync() error {
	if err := db.saveIndexSnapshot(); err != nil {
		return err
	}
	return db.store.Sync()
}

// Store exposes the underlying document store (the wire server ships raw
// documents through it).
func (db *DB) Store() *storage.Store { return db.store }

// PutDocument stores and indexes a document, durably at return.
//
// Encoding, page writes and index-contribution extraction all happen
// outside the collection's write lock. Under it, a replaced version's
// contribution is read back from its stored record (storedPrep) while seq
// is still even, so readers do not wait on that decode; the commit proper
// is one WAL append plus in-memory catalog and index updates — and
// because both commits happen under the same lock, the index always
// describes the version the WAL order made current (concurrent Puts of one
// document can no longer commit store and index in opposite orders). The
// group-commit fsync is awaited after the lock is released, so it stalls
// neither other writers nor snapshot readers.
func (db *DB) PutDocument(collection string, doc *xmltree.Document) error {
	prep := prepDoc(doc)
	staged, err := db.store.StageDocument(collection, doc)
	if err != nil {
		return err
	}
	ix := db.indexFor(collection)
	cs := db.colFor(collection)
	cs.writeMu.Lock()
	old := db.storedPrep(ix, collection, doc.Name)
	cs.seq.Add(1) // odd: mutation in progress
	tok, err := db.store.CommitStaged(staged)
	if err != nil {
		db.commit(collection, cs)
		db.store.AbortStaged(staged)
		return err
	}
	ix.replace(old, prep)
	db.commit(collection, cs) // even: new generation visible
	return db.store.WaitDurable(tok)
}

// LoadCollection stores and indexes every document of c. The collection
// is created first, so a load of an empty collection (or one interrupted
// mid-way) still leaves the collection cataloged. Indexing goes through
// the batch path: one lock acquisition and one sort per touched posting
// list, instead of a per-document sorted insert. On a store error the
// documents already stored are still indexed before the error returns, so
// index and store never disagree. The documents it replaces are read back
// first, as PutDocument reads back the one it replaces.
func (db *DB) LoadCollection(c *xmltree.Collection) error {
	if err := db.store.CreateCollection(c.Name); err != nil {
		return err
	}
	ix := db.indexFor(c.Name)
	cs := db.colFor(c.Name)
	cs.writeMu.Lock()
	old := map[string]*docPrep{}
	for _, d := range c.Docs {
		if p := db.storedPrep(ix, c.Name, d.Name); p != nil {
			old[d.Name] = p
		}
	}
	cs.seq.Add(1)
	stored := make([]*xmltree.Document, 0, len(c.Docs))
	var putErr error
	var last storage.CommitToken
	for _, d := range c.Docs {
		staged, err := db.store.StageDocument(c.Name, d)
		if err != nil {
			putErr = err
			break
		}
		tok, err := db.store.CommitStaged(staged)
		if err != nil {
			db.store.AbortStaged(staged)
			putErr = err
			break
		}
		last = tok
		stored = append(stored, d)
	}
	ix.bulkAdd(stored, old)
	db.commit(c.Name, cs)
	// One group-commit fsync covers the whole load.
	if err := db.store.WaitDurable(last); err != nil && putErr == nil {
		putErr = err
	}
	return putErr
}

// DeleteDocument removes a document from store and index, durably at
// return. Store and index commit under the collection write lock, in WAL
// order, exactly like PutDocument.
func (db *DB) DeleteDocument(collection, name string) error {
	cs := db.colFor(collection)
	cs.writeMu.Lock()
	db.mu.RLock()
	ix := db.idx[collection]
	db.mu.RUnlock()
	var old *docPrep
	if ix != nil {
		old = db.storedPrep(ix, collection, name)
	}
	cs.seq.Add(1)
	tok, err := db.store.DeleteDocumentNoSync(collection, name)
	if err != nil {
		db.commit(collection, cs)
		return err
	}
	if ix != nil {
		ix.remove(name, old)
	}
	db.commit(collection, cs)
	return db.store.WaitDurable(tok)
}

// DropCollection removes a whole collection, durably at return.
func (db *DB) DropCollection(name string) error {
	cs := db.colFor(name)
	cs.writeMu.Lock()
	cs.seq.Add(1)
	tok, err := db.store.DropCollectionNoSync(name)
	if err != nil {
		db.commit(name, cs)
		return err
	}
	db.mu.Lock()
	delete(db.idx, name)
	db.mu.Unlock()
	db.commit(name, cs)
	return db.store.WaitDurable(tok)
}

// storedPrep returns what the version of collection/name that ix holds
// contributed to it: prepDoc of its stored record, the prepDoc its put ran.
// It is nil when ix holds no such document, and nil too when the record
// cannot be read or decoded, which makes the index sweep for it instead
// (docIndex.dropLocked). Callers hold the collection's writeMu, so the
// version cannot change before their mutation commits, and call it before
// seq goes odd: readers do not wait on the decode.
func (db *DB) storedPrep(ix *docIndex, collection, name string) *docPrep {
	if !ix.holds(name) {
		return nil
	}
	doc, err := db.store.GetDocument(collection, name)
	if err != nil {
		return nil
	}
	p := prepDoc(doc)
	return &p
}

// commit ends a mutation a writer began with cs.writeMu held and seq made
// odd: seq goes even, publishing the new generation, the write lock is
// released, and every commit subscriber hears the generation, before the
// mutation returns to its caller. A failed mutation ends the same way: its
// generation moved too.
func (db *DB) commit(collection string, cs *colState) {
	gen := cs.seq.Add(1) >> 1
	cs.writeMu.Unlock()
	if subs := db.subs.Load(); subs != nil {
		for _, sub := range *subs {
			sub.fn(collection, gen)
		}
	}
}

// commitSub is one OnCommit subscription.
type commitSub struct {
	fn func(collection string, generation uint64)
}

// OnCommit subscribes fn to every mutation's commit: it is called with the
// collection and its new generation (see Generation) after the mutation is
// visible to queries and before PutDocument, DeleteDocument,
// LoadCollection or DropCollection returns, from the writer's goroutine,
// without any engine lock held. Concurrent writers call it concurrently,
// so a subscriber may see one collection's generations out of order; the
// highest it has seen is current. The returned function cancels the
// subscription.
func (db *DB) OnCommit(fn func(collection string, generation uint64)) (cancel func()) {
	sub := &commitSub{fn: fn}
	db.subsMu.Lock()
	defer db.subsMu.Unlock()
	var subs []*commitSub
	if old := db.subs.Load(); old != nil {
		subs = append(subs, *old...)
	}
	subs = append(subs, sub)
	db.subs.Store(&subs)
	return func() {
		db.subsMu.Lock()
		defer db.subsMu.Unlock()
		old := db.subs.Load()
		if old == nil {
			return
		}
		var rest []*commitSub
		for _, s := range *old {
			if s != sub {
				rest = append(rest, s)
			}
		}
		db.subs.Store(&rest)
	}
}

// Collections lists collection names.
func (db *DB) Collections() []string { return db.store.Collections() }

// HasCollection reports whether the collection exists.
func (db *DB) HasCollection(name string) bool { return db.store.HasCollection(name) }

// CollectionStats returns store statistics for a collection.
func (db *DB) CollectionStats(name string) (storage.Stats, error) {
	return db.store.CollectionStats(name)
}

// WALStatus reports the store's write-ahead log durability lag, for
// health endpoints that degrade when checkpointing or fsync falls
// behind.
func (db *DB) WALStatus() storage.WALStatus {
	return db.store.WALStatus()
}

// Query prepares (Prepare) and executes an XQuery expression.
func (db *DB) Query(query string) (xquery.Seq, error) {
	p, err := db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return db.runPrepared(p)
}

// QueryExpr executes a parsed query: through the compiled vectorized
// pipeline when the query is inside the compiled subset, through the
// tree-walking interpreter otherwise. Both paths produce identical results.
func (db *DB) QueryExpr(e xquery.Expr) (xquery.Seq, error) {
	return db.runPrepared(newPrepared(e, ""))
}

func (db *DB) runPrepared(p *Prepared) (xquery.Seq, error) {
	db.countQuery(p)
	start := time.Now()
	var seq xquery.Seq
	var err error
	if p.prog != nil {
		seq, err = p.prog.Run(db)
	} else {
		seq, err = xquery.Eval(p.Expr, db)
	}
	db.observeQuery(p, time.Since(start))
	return seq, err
}

// StreamQueryExpr is StreamPrepared of a query that was parsed
// elsewhere, prepared for this run only.
func (db *DB) StreamQueryExpr(e xquery.Expr, origins *Origins, yield func(xquery.Seq) error) (int, error) {
	return db.StreamPrepared(newPrepared(e, ""), origins, yield)
}

// StreamPrepared executes a prepared query delivering result items to
// yield in bounded chunks, so peak memory stays flat however large the
// result is. Each yielded Seq is owned by the consumer. Queries outside
// the compiled subset fall back to the interpreter, which materializes
// and then yields once — correctness is unchanged, only the memory bound
// is lost. Returns the total item count.
//
// The query's scans keep origins up to date, so that during yield it
// tells where each yielded node was decoded from, while those bytes are
// still intact (Origins); it holds nothing once the stream returns, so it
// can serve the caller's next stream.
func (db *DB) StreamPrepared(p *Prepared, origins *Origins, yield func(xquery.Seq) error) (int, error) {
	db.countQuery(p)
	start := time.Now()
	defer func() { db.observeQuery(p, time.Since(start)) }()
	origins.src = streamSource{DB: db, origins: origins}
	src := &origins.src
	defer origins.end()
	if p.prog != nil {
		return p.prog.Stream(src, yield)
	}
	seq, err := xquery.Eval(p.Expr, src)
	if err != nil {
		return 0, err
	}
	if len(seq) > 0 {
		if err := yield(seq); err != nil {
			return 0, err
		}
	}
	return len(seq), nil
}

// countQuery counts a query run, and whether the compiled pipeline runs
// it: every run counts, cached program or not.
func (db *DB) countQuery(p *Prepared) {
	db.stats.queries.Add(1)
	obs.EngineQueries.Inc()
	if p.prog != nil {
		db.stats.compiled.Add(1)
		obs.EngineCompiledQueries.Inc()
	}
}

// observeQuery records a finished run's latency and heat.
func (db *DB) observeQuery(p *Prepared, elapsed time.Duration) {
	obs.EngineQuerySeconds.Observe(elapsed.Seconds())
	db.observeQueryHeat(p.collections, elapsed)
}

// Stats returns a snapshot of the engine counters. Each field is read
// atomically; the snapshot as a whole is not a single linearization
// point, which is fine for the monitoring and benchmark uses it has.
func (db *DB) Stats() Stats {
	return Stats{
		Queries:       db.stats.queries.Load(),
		Compiled:      db.stats.compiled.Load(),
		DocsDecoded:   db.stats.docsDecoded.Load(),
		DocsPruned:    db.stats.docsPruned.Load(),
		RangePruned:   db.stats.rangePruned.Load(),
		IndexOnlyHits: db.stats.indexOnlyHits.Load(),
		BytesDecoded:  db.stats.bytesDecoded.Load(),
	}
}

// ResetStats zeroes the counters.
func (db *DB) ResetStats() {
	db.stats.queries.Store(0)
	db.stats.compiled.Store(0)
	db.stats.docsDecoded.Store(0)
	db.stats.docsPruned.Store(0)
	db.stats.rangePruned.Store(0)
	db.stats.indexOnlyHits.Store(0)
	db.stats.bytesDecoded.Store(0)
}

// querySnapshot is one query's consistent view of a collection: the
// pinned document set and the candidate refs left after index pruning.
type querySnapshot struct {
	snap        *storage.CollectionSnapshot
	refs        []storage.DocRef // candidates, in document-name order
	pruned      int
	rangePruned int
}

// snapshotForQuery captures a querySnapshot: the pinned snapshot and the
// refs of the index candidates the hint leaves, both from one capture.
func (db *DB) snapshotForQuery(collection string, hint *xquery.Hint) (querySnapshot, error) {
	var q querySnapshot
	_, err := db.capture(collection, func(snap *storage.CollectionSnapshot, ix *docIndex) {
		q = querySnapshot{snap: snap, refs: snap.Refs}
		if ix == nil || hint == nil || len(hint.Constraints) == 0 {
			return
		}
		ids, constrained, rp, _ := ix.candidates(hint)
		q.rangePruned = rp
		if constrained {
			names := ix.docNames(ids)
			slices.Sort(names)
			q.refs = selectRefs(snap.Refs, names)
			q.pruned = len(snap.Refs) - len(q.refs)
		}
	})
	return q, err
}

// capture hands read a consistent view of a collection without blocking
// on writers: it reads the collection seqlock, takes a pinned store
// snapshot, lets read consult it and the collection's index (nil with
// indexes off), and retries if a writer committed in between (the index
// could then describe documents the snapshot does not hold, or miss ones
// it does). After a few optimistic failures it serializes with the writer
// lock, which bounds retries under a write storm. It returns the snapshot
// of the attempt that held, for the caller to close.
func (db *DB) capture(collection string, read func(*storage.CollectionSnapshot, *docIndex)) (*storage.CollectionSnapshot, error) {
	cs := db.colFor(collection)
	for attempt := 0; ; attempt++ {
		locked := attempt >= 3
		if locked {
			cs.writeMu.Lock()
		} else if attempt > 0 {
			obs.EngineSnapshotRetries.Inc()
		}
		s1 := cs.seq.Load()
		if !locked && s1&1 == 1 {
			runtime.Gosched() // writer mid-commit; its window is lock-free map work
			continue
		}
		snap, err := db.store.SnapshotCollection(collection)
		if err != nil {
			stable := cs.seq.Load() == s1
			if locked {
				cs.writeMu.Unlock()
			}
			if locked || stable {
				return nil, err
			}
			continue // raced a create/drop: re-resolve
		}
		var ix *docIndex
		if !db.opts.DisableIndexes {
			db.mu.RLock()
			ix = db.idx[collection]
			db.mu.RUnlock()
		}
		read(snap, ix)
		if locked {
			cs.writeMu.Unlock()
			return snap, nil
		}
		if cs.seq.Load() == s1 {
			return snap, nil
		}
		snap.Close() // a writer committed mid-capture; retry
	}
}

// Decide implements xquery.Decider: the number of candidates the hint
// leaves (with nodes, the nodes at its one path), when that list is exact.
// It reads the capture a scan reads (capture), so it answers what a scan
// of that snapshot would find, and it resolves no candidate to a ref.
func (db *DB) Decide(collection string, hint *xquery.Hint, nodes bool) (int64, bool) {
	if !hint.Complete || db.opts.DisableIndexes {
		return 0, false
	}
	var n int64
	var exact bool
	snap, err := db.capture(collection, func(snap *storage.CollectionSnapshot, ix *docIndex) {
		n, exact = 0, false
		switch {
		case ix == nil:
		case nodes:
			n, exact = ix.countNodes(hint)
		default:
			ids, constrained, _, ok := ix.candidates(hint)
			n, exact = int64(len(ids)), ok
			if !constrained {
				n = int64(len(snap.Refs))
			}
		}
	})
	if err != nil {
		return 0, false
	}
	snap.Close()
	if !exact {
		return 0, false
	}
	db.stats.indexOnlyHits.Add(1)
	obs.EngineIndexOnly.Inc()
	return n, true
}

// selectRefs picks the refs of the named documents out of a name-sorted
// ref slice: each name of the sorted names is binary-searched in the part
// of refs after the previous match, in O(len(names) · log len(refs)). A
// name the refs lack is skipped.
func selectRefs(refs []storage.DocRef, names []string) []storage.DocRef {
	out := make([]storage.DocRef, 0, len(names))
	for _, name := range names {
		i, found := slices.BinarySearchFunc(refs, name, func(r storage.DocRef, n string) int {
			return strings.Compare(r.Name, n)
		})
		if found {
			out = append(out, refs[i])
			i++
		}
		refs = refs[i:]
	}
	return out
}

// Docs implements xquery.Source with index-assisted pruning: when a hint
// is present (and indexes are enabled) only candidate documents are
// decoded; the rest are skipped without touching the store. The iteration
// runs over an immutable pinned snapshot, so concurrent writers neither
// block it nor change what it sees.
//
// Candidates are read and decoded a chunk at a time: a chunk's records are
// read back to back into one buffer the scan reuses, then decoded in one
// storage.DecodeRecords walk under the hint's projection (hint.Keep), so
// only the part of each document the query reads is built, and a chunk
// costs a constant handful of allocations whatever its document count.
// Chunk limits double from 1 up to maxChunkDocs documents, so a scan fn
// stops after k documents (an exists() witness) has decoded fewer than 2k;
// a chunk also ends at maxChunkBytes of records, a larger record being a
// chunk of its own. The documents reach fn one by one in document-name
// order; a node fn keeps pins its chunk's slabs (storage's retention
// rule). The counters take every document decoded, the unconsumed rest of
// the chunk fn stopped in included, whether or not the scan succeeds.
func (db *DB) Docs(collection string, hint *xquery.Hint, fn func(*xmltree.Document) error) error {
	return db.scan(collection, hint, nil, scanDecode, nil, func(d *xmltree.Document, _ []byte) error { return fn(d) })
}

// scanMode says what a scan hands its callback.
type scanMode uint8

const (
	// scanDecode decodes every candidate under the hint's projection;
	// the records are only valid during the callback.
	scanDecode scanMode = iota
	// scanRecords decodes every candidate too, and each chunk is read
	// into a fresh buffer, so a record stays valid after the callback.
	scanRecords
	// scanRaw decodes nothing (the Document carries only the name) and
	// reads every chunk into a fresh buffer.
	scanRaw
)

// scan is the one read path over a collection's documents, behind Docs
// and Fetch: it pins a snapshot, takes the candidates the hint leaves
// (all of them without one), restricted to names when names is non-nil
// (sorted), and reads them a chunk at a time (scanChunks), handing fn
// each document with its stored record. Only decoding scans count as
// decoded in the statistics. A scanDecode scan given origins keeps it
// holding the chunk it decoded last.
func (db *DB) scan(collection string, hint *xquery.Hint, names []string, mode scanMode, origins *Origins, fn func(*xmltree.Document, []byte) error) error {
	q, err := db.snapshotForQuery(collection, hint)
	if err != nil {
		return err
	}
	defer q.snap.Close()
	refs := q.refs
	if names != nil {
		refs = selectRefs(refs, names)
	}

	var keep *xmltree.Projection
	if hint != nil {
		keep = hint.Keep
	}
	decoded, read, walked, err := db.scanChunks(refs, keep, mode, origins, fn)
	if mode == scanRaw {
		return err
	}
	pruned, rangePruned := int64(q.pruned), int64(q.rangePruned)
	db.stats.docsDecoded.Add(decoded)
	db.stats.docsPruned.Add(pruned)
	db.stats.rangePruned.Add(rangePruned)
	db.stats.bytesDecoded.Add(walked)
	obs.EngineDocsDecoded.Add(decoded)
	obs.EngineDocsPruned.Add(pruned)
	obs.EngineRangePruned.Add(rangePruned)
	obs.EngineBytesDecoded.Add(walked)
	db.observeDocsHeat(collection, decoded, read)
	return err
}

// The bounds of a Docs chunk.
const (
	maxChunkDocs  = 64
	maxChunkBytes = 256 << 10
)

// scanChunks reads, decodes (unless mode is scanRaw) and hands to fn the
// documents of refs with their records, a chunk at a time, and reports how
// many documents and record bytes it read, and how many of those bytes
// the decoder walked: a projected decode skips the subtrees it drops. The
// per-chunk scratch lives on the stack. A chunk is one ReadRefs call,
// which reads the records that sit back to back in a packed page with one
// read, whatever their name order, and a chain on consecutive pages with
// one read. Under scanDecode the read buffer is reused: it grows at most
// once per chunk, to the chunk's storage.ReadSpan (its records with their
// chains' pages whole), so a scan with one huge candidate costs what
// reading and decoding it alone costs. Given origins, a scanDecode scan
// takes its buffer from origins and hands it back when it ends, so the
// buffer outlives the query on its connection (Origins.buf). The other
// modes read every chunk into a buffer of its own. origins, when non-nil,
// is released (flushing the pipeline that may hold shells) before the
// buffer is overwritten and holds each chunk once it has decoded.
func (db *DB) scanChunks(refs []storage.DocRef, keep *xmltree.Projection, mode scanMode, origins *Origins, fn func(*xmltree.Document, []byte) error) (decoded, read, walked int64, err error) {
	var (
		buf   []byte
		recs  [maxChunkDocs][]byte
		roots [maxChunkDocs]*xmltree.Node
	)
	if mode == scanDecode && origins != nil {
		buf = origins.takeBuffer()
		defer func() { origins.keepBuffer(buf) }()
	}
	for limit := 1; len(refs) > 0; limit = min(2*limit, maxChunkDocs) {
		n, size := 1, refs[0].Size
		for n < min(limit, len(refs)) && size+refs[n].Size <= maxChunkBytes {
			size += refs[n].Size
			n++
		}
		chunk := refs[:n]
		refs = refs[n:]
		if need := storage.ReadSpan(chunk); mode != scanDecode || cap(buf) < need {
			buf = make([]byte, 0, need)
		}
		if origins != nil {
			if err := origins.release(); err != nil {
				return decoded, read, walked, err
			}
		}
		if buf, err = db.store.ReadRefs(buf[:0], chunk, recs[:n]); err != nil {
			return decoded, read, walked, err
		}
		if mode != scanRaw {
			w, i, err := storage.DecodeRecords(recs[:n], keep, roots[:n])
			if err != nil {
				return decoded, read, walked, fmt.Errorf("storage: decode %q: %w", chunk[i].Name, err)
			}
			walked += w
			if origins != nil {
				origins.hold(roots[:n], recs[:n])
			}
		}
		decoded += int64(n)
		read += int64(len(buf))
		docs := make([]xmltree.Document, n)
		for i, ref := range chunk {
			docs[i] = xmltree.Document{Name: ref.Name, Root: roots[i]}
			if err := fn(&docs[i], recs[i][:len(recs[i]):len(recs[i])]); err != nil {
				return decoded, read, walked, err
			}
		}
	}
	return decoded, read, walked, nil
}

// Fetch streams the stored records of the documents a fetch selects to
// fn, in document-name order, for the coordinator's join reconstruction:
// every document of the collection, or with names non-nil only the named
// ones (an empty list selects none; names the collection lacks are
// skipped). A non-empty where further keeps only the documents it selects:
// it is a filter, `for $v in collection("c")/E where … return $v` over
// this collection (E its root element), run through the compiled executor
// (exec.Filter), so the value and text indexes prune its candidates and
// only what its where clause reads is decoded; each matched record is
// read once, by that scan.
// Like Docs it reads one pinned snapshot, so a write that lands mid-fetch
// neither fails the fetch nor mixes generations into it. A record stays
// valid after fn returns (every chunk is read into a buffer of its own),
// so a caller may collect a frame's worth of records and copy or decode
// them together, as the wire's fetch stream does; fn returning an error
// stops the iteration.
func (db *DB) Fetch(collection string, names []string, where string, fn func(name string, raw []byte) error) error {
	if names != nil && !slices.IsSorted(names) {
		names = slices.Clone(names)
		slices.Sort(names)
	}
	if where == "" {
		return db.scan(collection, nil, names, scanRaw, nil, func(d *xmltree.Document, raw []byte) error {
			return fn(d.Name, raw)
		})
	}
	filter, err := db.fetchFilter(collection, where)
	if err != nil {
		return err
	}
	src := &fetchSource{db: db, names: names, fn: fn}
	return filter.Match(src, func() { src.matched = true })
}

// fetchSource is the xquery.Source a filtered fetch runs its filter over:
// it scans the fetch's candidates and ships the record of every document
// the filter matched while it was being handed out.
type fetchSource struct {
	db      *DB
	names   []string
	fn      func(name string, raw []byte) error
	matched bool
}

// Docs implements xquery.Source.
func (s *fetchSource) Docs(collection string, hint *xquery.Hint, fn func(*xmltree.Document) error) error {
	return s.db.scan(collection, hint, s.names, scanRecords, nil, func(d *xmltree.Document, raw []byte) error {
		s.matched = false
		if err := fn(d); err != nil || !s.matched {
			return err
		}
		return s.fn(d.Name, raw)
	})
}

// Doc implements xquery.Source: a fetch filter reads its collection only.
func (s *fetchSource) Doc(name string) (*xmltree.Document, error) {
	return nil, fmt.Errorf("engine: fetch filter cannot read doc(%q)", name)
}

// Doc implements xquery.Source for doc("name"): the store's collections
// are tried in sorted order, so when several hold the name the
// lexicographically first wins, and a real store error surfaces instead
// of reading as "not found".
func (db *DB) Doc(name string) (*xmltree.Document, error) {
	for _, col := range db.store.Collections() {
		d, err := db.store.GetDocument(col, name)
		if err == nil {
			return d, nil
		}
		if !errors.Is(err, storage.ErrNotFound) {
			return nil, fmt.Errorf("engine: doc %q: %w", name, err)
		}
		// Not in this collection, or it was dropped since the listing.
	}
	return nil, fmt.Errorf("engine: document %q not found in any collection", name)
}
