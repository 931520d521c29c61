package engine

import (
	"sync"
	"testing"
)

// TestStatsConcurrentQueries exercises the counter paths under -race:
// parallel queries (each flushing decode counters), concurrent Stats
// snapshots, and a ResetStats mid-flight.
func TestStatsConcurrentQueries(t *testing.T) {
	db := testDB(t, Options{})
	loadItems(t, db)

	const goroutines, iters = 6, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.Query(`collection("items")/Item/Code`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < goroutines*iters; i++ {
			s := db.Stats()
			if s.DocsDecoded < 0 || s.Queries < 0 {
				t.Error("negative counters")
				return
			}
			if i == goroutines*iters/2 {
				db.ResetStats()
			}
		}
	}()
	wg.Wait()

	if s := db.Stats(); s.Queries == 0 && s.DocsDecoded == 0 {
		// Reset may have landed after the last query, but both being
		// zero would mean nothing was ever counted.
		t.Fatalf("stats never accumulated: %+v", s)
	}
}
