package storage

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"partix/internal/xmltree"
)

// TestSizeTriggeredCheckpointKeepsAcknowledgedPuts: with a small
// CheckpointBytes, concurrent puts push the log past the threshold again
// and again, so maybeCheckpoint's goroutine checkpoints (and truncates the
// log) while writers keep appending. The files, copied as they are and
// reopened without Close, must hold every acknowledged document.
func TestSizeTriggeredCheckpointKeepsAcknowledgedPuts(t *testing.T) {
	const (
		writers   = 4
		perWriter = 100
		threshold = 2 << 10
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.db")
	s, err := OpenWith(path, Options{CheckpointBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		acked  = map[string]string{}
		putErr error
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d-d%03d", w, i)
				xml := fmt.Sprintf("<Item><Code>%s</Code><Description>writer %d put document %d of a size that fills the log</Description></Item>", name, w, i)
				if err := s.PutDocument("items", doc(name, xml)); err != nil {
					mu.Lock()
					putErr = err
					mu.Unlock()
					return
				}
				mu.Lock()
				acked[name] = xml
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if putErr != nil {
		t.Fatal(putErr)
	}

	// Every put logged at least its encoded record, far past the
	// threshold in all; only a checkpoint shrinks the log, so a log below
	// the threshold means a background checkpoint truncated it.
	var logged int64
	for name, xml := range acked {
		data, err := EncodeDocument(doc(name, xml))
		if err != nil {
			t.Fatal(err)
		}
		logged += int64(len(data))
	}
	if logged < 4*threshold {
		t.Fatalf("the puts logged %d bytes, too few to cross the %d-byte threshold repeatedly", logged, threshold)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.WALStatus().SizeBytes >= threshold {
		if time.Now().After(deadline) {
			t.Fatalf("log still holds %d bytes: no background checkpoint truncated it", s.WALStatus().SizeBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Copy the files with no checkpoint in flight: a copy taken across a
	// checkpoint's header switch and log truncation would be an image no
	// crash leaves.
	crash := filepath.Join(dir, "crash.db")
	s.ckptMu.Lock()
	copyCrashImage(t, path, crash)
	s.ckptMu.Unlock()

	s2, err := Open(crash)
	if err != nil {
		t.Fatalf("open the copy: %v", err)
	}
	defer s2.Close()
	names, err := s2.Documents("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(acked) {
		t.Fatalf("the copy holds %d documents, want %d", len(names), len(acked))
	}
	for name, xml := range acked {
		got, err := s2.GetDocument("items", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := doc(name, xml); !xmltree.EqualDocuments(want, got) {
			t.Fatalf("%s differs: %s", name, xmltree.Diff(want.Root, got.Root))
		}
	}
}
