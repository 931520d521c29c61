package engine

import (
	"sync"
	"sync/atomic"

	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xmltree"
)

// The parallel decode pipeline: Docs fans candidate fetch+decode out to a
// bounded worker pool and delivers documents to the evaluator callback in
// stable document order, so query results are identical to the sequential
// engine's regardless of worker count. Decode-ahead is throttled by a
// window of 2×workers outstanding documents, bounding memory.

// fetched is one candidate document fetched (and decoded, unless served
// from the tree cache) for delivery to the evaluator.
type fetched struct {
	doc      *xmltree.Document
	rawBytes int64
	cacheHit bool
	err      error
}

// docCounters accumulates per-query work, flushed into Stats only when
// the whole iteration succeeds (matching the sequential engine, which
// never counted partially-failed scans).
type docCounters struct {
	decoded int64
	bytes   int64
	hits    int64
	misses  int64
}

func (c *docCounters) account(db *DB, f fetched) {
	if f.cacheHit {
		c.hits++
		return
	}
	c.decoded++
	c.bytes += f.rawBytes
	if db.cache != nil {
		c.misses++
	}
}

// fetchDecode loads one candidate document through its snapshot ref
// (lock-free: the query's pin keeps the record chain stable), consulting
// the decoded-tree cache when enabled. keep is the query's projection;
// Docs passes nil whenever the cache is on, so only whole trees are ever
// cached.
func (db *DB) fetchDecode(collection string, ref storage.DocRef, gen uint64, keep *xmltree.Projection) fetched {
	obs.EngineDecodeInflight.Add(1)
	defer obs.EngineDecodeInflight.Add(-1)
	key := treeKey{collection: collection, name: ref.Name, gen: gen}
	if db.cache != nil {
		if doc, ok := db.cache.get(key); ok {
			return fetched{doc: doc, cacheHit: true}
		}
	}
	raw, err := db.store.ReadRef(ref)
	if err != nil {
		return fetched{err: err}
	}
	doc, err := storage.DecodeProjected(ref.Name, raw, keep)
	if err != nil {
		return fetched{err: err}
	}
	if db.cache != nil {
		db.cache.put(key, doc)
	}
	return fetched{doc: doc, rawBytes: int64(len(raw))}
}

// docsSequential is the paper-faithful path (DecodeWorkers=1): one
// candidate at a time on the calling goroutine.
func (db *DB) docsSequential(collection string, refs []storage.DocRef, gen uint64, keep *xmltree.Projection,
	fn func(*xmltree.Document) error, c *docCounters) error {
	for _, ref := range refs {
		f := db.fetchDecode(collection, ref, gen, keep)
		if f.err != nil {
			return f.err
		}
		c.account(db, f)
		if err := fn(f.doc); err != nil {
			return err
		}
	}
	return nil
}

// docsPipelined fans fetch+decode across workers goroutines. Each
// candidate index has a one-slot reorder channel; the consumer walks them
// in order, so fn observes the exact sequential document order. The sem
// channel throttles decode-ahead: workers acquire a token per job, the
// consumer releases one per delivered document.
func (db *DB) docsPipelined(collection string, refs []storage.DocRef, gen uint64, keep *xmltree.Projection, workers int,
	fn func(*xmltree.Document) error, c *docCounters) error {
	n := len(refs)
	window := 2 * workers
	if window > n {
		window = n
	}
	sem := make(chan struct{}, window)
	slots := make([]chan fetched, n)
	for i := range slots {
		slots[i] = make(chan fetched, 1)
	}
	stop := make(chan struct{})
	var next atomic.Int64
	next.Store(-1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case sem <- struct{}{}:
				case <-stop:
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				slots[i] <- db.fetchDecode(collection, refs[i], gen, keep)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < n; i++ {
		f := <-slots[i]
		<-sem
		if f.err != nil {
			return f.err
		}
		c.account(db, f)
		if err := fn(f.doc); err != nil {
			return err
		}
	}
	return nil
}
