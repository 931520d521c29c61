package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/obs"
)

// The write-ahead log makes Put/Delete/Drop durable at commit without
// paying a catalog write per operation. Every mutating operation appends
// one record — framed, checksummed — to an append-only side file
// (<store>.wal) while it applies the change to the paged file and the
// in-memory catalog; the catalog itself is only persisted by checkpoints,
// which then truncate the log. Opening a store replays whatever the log
// holds on top of the last checkpointed catalog, so a crash loses nothing
// that was acknowledged.
//
// Durability is fsync-with-group-commit: a committer whose record is not
// yet known durable either becomes the sync leader (one fsync covers every
// record appended so far) or waits for the in-flight leader whose fsync
// will cover it. Concurrent committers therefore batch into a single
// fsync instead of queueing one fsync each.
//
// A torn tail — a crash mid-append — is detected by the frame checksum;
// replay stops at the first bad frame and truncates it away, yielding
// exactly the prefix of acknowledged commits that reached the disk.

const (
	walMagic      = "PTXWAL01"
	walHeaderSize = 8
	walFrameSize  = 8 // u32 payload length + u32 crc32(payload)

	// walMaxRecord bounds a single replayed record (a document plus
	// framing); larger length fields mark a torn or corrupt frame.
	walMaxRecord = 1 << 30
)

// walOp enumerates the logged operations.
type walOp byte

const (
	walOpPut    walOp = 1 // Collection, Doc, Data (encoded document)
	walOpDelete walOp = 2 // Collection, Doc
	walOpDrop   walOp = 3 // Collection
	walOpCreate walOp = 4 // Collection
	walOpMeta   walOp = 5 // Doc (meta key), Data (empty = delete)
)

// walRecord is one logged operation.
type walRecord struct {
	Op         walOp
	Collection string
	Doc        string
	Data       []byte
}

// wal is the append-only log of one store.
type wal struct {
	mu   sync.Mutex // guards appends: file offset and sequence
	f    *os.File
	size int64
	seq  uint64 // sequence of the last appended record

	nofsync bool

	// lastSync is the unix-nano time of the last successful fsync (or
	// open/reset, when the on-disk state was known durable), read by
	// WALStatus for checkpoint-lag health reporting.
	lastSync atomic.Int64

	// The group-commit state. sync.mu is never held while waiting for
	// wal.mu's holder, and the leader releases sync.mu around the fsync
	// itself, so appends keep flowing into the next batch.
	gc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		synced  uint64 // highest sequence known durable
		syncing bool   // a leader's fsync is in flight
		err     error  // sticky: the log is unusable after a failed fsync
	}
}

// openWAL opens (creating if needed) the log at path and scans it,
// returning every intact record for replay. A torn tail is truncated.
func openWAL(path string, nofsync bool) (*wal, []walRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: open wal %s: %w", path, err)
	}
	w := &wal{f: f, nofsync: nofsync}
	w.gc.cond = sync.NewCond(&w.gc.mu)
	w.lastSync.Store(time.Now().UnixNano())
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: stat wal %s: %w", path, err)
	}
	if st.Size() < walHeaderSize {
		// Fresh log (or one torn during creation): start it over.
		if err := w.reinit(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	hdr := make([]byte, walHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, walHeaderSize), hdr); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: read wal header: %w", err)
	}
	if string(hdr) != walMagic {
		f.Close()
		return nil, nil, fmt.Errorf("storage: bad wal magic %q (not a partix wal)", hdr)
	}
	records, good := scanWAL(f, st.Size())
	if good < st.Size() {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}
	w.size = good
	w.seq = uint64(len(records))
	w.gc.synced = w.seq // everything read back is on disk by definition
	return w, records, nil
}

// scanWAL reads frames from after the header until the first torn or
// corrupt one, returning the decoded records and the offset of the last
// good frame's end. A payload is allocated only once its length fits in
// the size bytes, so a corrupt length costs nothing.
func scanWAL(f io.ReaderAt, size int64) ([]walRecord, int64) {
	var records []walRecord
	off := int64(walHeaderSize)
	frame := make([]byte, walFrameSize)
	for {
		if off+walFrameSize > size {
			return records, off
		}
		if _, err := f.ReadAt(frame, off); err != nil {
			return records, off
		}
		n := int64(binary.LittleEndian.Uint32(frame))
		sum := binary.LittleEndian.Uint32(frame[4:])
		if n == 0 || n > walMaxRecord || off+walFrameSize+n > size {
			return records, off
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+walFrameSize); err != nil {
			return records, off
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, off
		}
		rec, ok := decodeWALRecord(payload)
		if !ok {
			return records, off
		}
		records = append(records, rec)
		off += walFrameSize + n
	}
}

// reinit writes a fresh header over an empty (or abandoned) log file.
func (w *wal) reinit() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: reset wal: %w", err)
	}
	if _, err := w.f.WriteAt([]byte(walMagic), 0); err != nil {
		return fmt.Errorf("storage: write wal header: %w", err)
	}
	w.size = walHeaderSize
	return nil
}

// encodeWALRecord appends the framed record to buf and returns it.
func encodeWALRecord(buf []byte, rec walRecord) []byte {
	payload := make([]byte, 0, 1+3*4+len(rec.Collection)+len(rec.Doc)+len(rec.Data))
	payload = append(payload, byte(rec.Op))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.Collection)))
	payload = append(payload, rec.Collection...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.Doc)))
	payload = append(payload, rec.Doc...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.Data)))
	payload = append(payload, rec.Data...)

	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// decodeWALRecord parses one frame payload.
func decodeWALRecord(p []byte) (walRecord, bool) {
	var rec walRecord
	if len(p) < 1 {
		return rec, false
	}
	rec.Op = walOp(p[0])
	p = p[1:]
	next := func() ([]byte, bool) {
		if len(p) < 4 {
			return nil, false
		}
		n := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if n > len(p) {
			return nil, false
		}
		field := p[:n]
		p = p[n:]
		return field, true
	}
	col, ok := next()
	if !ok {
		return rec, false
	}
	doc, ok := next()
	if !ok {
		return rec, false
	}
	data, ok := next()
	if !ok || len(p) != 0 {
		return rec, false
	}
	rec.Collection = string(col)
	rec.Doc = string(doc)
	if len(data) > 0 {
		rec.Data = append([]byte(nil), data...)
	}
	switch rec.Op {
	case walOpPut, walOpDelete, walOpDrop, walOpCreate, walOpMeta:
		return rec, true
	}
	return rec, false
}

// append writes one record to the log (no fsync) and returns its
// sequence, which commit turns into a durability guarantee.
func (w *wal) append(rec walRecord) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gc.mu.Lock()
	err := w.gc.err
	w.gc.mu.Unlock()
	if err != nil {
		return 0, err
	}
	buf := encodeWALRecord(nil, rec)
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return 0, fmt.Errorf("storage: append wal record: %w", err)
	}
	w.size += int64(len(buf))
	w.seq++
	obs.StorageWALAppends.Inc()
	obs.StorageWALBytes.Add(int64(len(buf)))
	return w.seq, nil
}

// lastSeq returns the sequence of the most recently appended record.
func (w *wal) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// sizeNow returns the current log size in bytes.
func (w *wal) sizeNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// commit blocks until the record with the given sequence is durable,
// batching with every other in-flight committer: the first waiter becomes
// the leader and fsyncs once for everything appended so far; the rest
// ride that fsync (or the next one, if they appended during it).
func (w *wal) commit(seq uint64) error {
	if w.nofsync || seq == 0 {
		return nil
	}
	g := &w.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.err != nil {
			return g.err
		}
		if g.synced >= seq {
			return nil
		}
		if g.syncing {
			g.cond.Wait()
			continue
		}
		g.syncing = true
		covered := g.synced
		g.mu.Unlock()
		w.mu.Lock()
		target := w.seq
		w.mu.Unlock()
		err := w.f.Sync()
		g.mu.Lock()
		g.syncing = false
		if err != nil {
			// The kernel may have dropped the unflushed pages; nothing
			// appended so far can be trusted durable. Poison the log so no
			// later commit reports success it cannot guarantee.
			g.err = fmt.Errorf("storage: wal fsync: %w", err)
		} else {
			if target > g.synced {
				g.synced = target
			}
			w.lastSync.Store(time.Now().UnixNano())
			obs.StorageWALFsyncs.Inc()
			obs.StorageWALGroupSize.Observe(float64(target - covered))
		}
		g.cond.Broadcast()
	}
}

// reset truncates the log after a checkpoint that covers every record up
// to coveredSeq, releasing any committer still waiting on one of them.
func (w *wal) reset(coveredSeq uint64) error {
	w.mu.Lock()
	err := w.reinit()
	w.mu.Unlock()
	if err == nil {
		// An empty log is durable by definition.
		w.lastSync.Store(time.Now().UnixNano())
	}
	g := &w.gc
	g.mu.Lock()
	if coveredSeq > g.synced {
		g.synced = coveredSeq
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// close releases the file. Pending commits are not waited for; the store
// checkpoints before closing, which covers them.
func (w *wal) close() error {
	return w.f.Close()
}

// status reads the log's durability state for health reporting.
func (w *wal) status() (size int64, lastSeq, syncedSeq uint64, lastSync time.Time) {
	w.mu.Lock()
	size, lastSeq = w.size, w.seq
	w.mu.Unlock()
	w.gc.mu.Lock()
	syncedSeq = w.gc.synced
	w.gc.mu.Unlock()
	if ns := w.lastSync.Load(); ns != 0 {
		lastSync = time.Unix(0, ns)
	}
	return size, lastSeq, syncedSeq, lastSync
}
