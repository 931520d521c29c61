package wire

// Coverage for result streaming: streamed results must be byte-identical
// to the engine's own answer at every batch size, a stream cut mid-way
// must surface as an error (never as a truncated-but-successful result),
// and an early-terminating consumer must be able to cancel the stream.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

const allItemsQuery = `for $i in collection("c")/Item return $i`

// Concurrent streams must each deliver their exact result: every stream
// owns its frame payload and record encoder. (Regression: frame buffers
// once came from a shared pool, and the server double-inserted one on
// the mid-stream flush path, so two streams could scribble over the same
// backing array.)
func TestConcurrentStreamsShareBufferPool(t *testing.T) {
	// Fat items and single-item batches keep many flushes in flight at
	// once, which is what exposed the double-insert.
	db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.Store().CreateCollection("c")
	const docs = 48
	pad := strings.Repeat("x", 4096)
	for i := 0; i < docs; i++ {
		doc := xmltree.MustParseString(fmt.Sprintf("d%02d", i),
			fmt.Sprintf("<Item><Code>I%d</Code><Pad>%s</Pad></Item>", i, pad))
		if err := db.PutDocument("c", doc); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: 1})
	c := dialStream(t, addr, ClientOptions{PoolSize: 16})
	want := fingerprint(t, mustQuery(t, c, allItemsQuery))

	const streams = 16
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		go func() {
			var got xquery.Seq
			err := c.StreamQuery(allItemsQuery, func(s xquery.Seq) error {
				got = append(got, s...)
				return nil
			})
			if err == nil {
				gf := fingerprint(t, got)
				if len(gf) != len(want) {
					err = fmt.Errorf("stream delivered %d items, want %d", len(gf), len(want))
				} else {
					for i := range want {
						if gf[i] != want[i] {
							err = fmt.Errorf("item %d corrupted", i)
							break
						}
					}
				}
			}
			errs <- err
		}()
	}
	for g := 0; g < streams; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func mustQuery(t *testing.T, c *Client, q string) xquery.Seq {
	t.Helper()
	items, err := c.ExecuteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// fingerprint serializes a result sequence so two executions can be
// compared byte for byte (node items are serialized as XML).
func fingerprint(t *testing.T, s xquery.Seq) []string {
	t.Helper()
	out := make([]string, len(s))
	for i, it := range s {
		if n, ok := xquery.NodeOf(it); ok {
			out[i] = xmltree.SerializeString(&xmltree.Document{Name: "item", Root: n})
		} else {
			out[i] = fmt.Sprintf("%T:%s", it, xquery.ItemString(it))
		}
	}
	return out
}

func dialStream(t *testing.T, addr string, opts ClientOptions) *Client {
	t.Helper()
	c, err := DialWith("n0", addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// Streamed query and fetch results are identical to the centralized
// oracle's — the engine evaluating the query whole, the store reading the
// collection whole — at every batch size, including a batch far larger
// than the result and the byte-budget flush. A result smaller than one
// batch is one message.
func TestStreamedResultsMatchOracle(t *testing.T) {
	const docs = 53
	db := newNodeDB(t, docs)
	for _, batch := range []int{1, 7, 0, 100000} {
		batch := batch
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: batch})
			c := dialStream(t, addr, ClientOptions{})

			for _, q := range []string{allItemsQuery, countQuery, `collection("c")/Item/Code`} {
				want, err := db.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				framesBefore := c.Stats().Frames
				wf, gf := fingerprint(t, want), fingerprint(t, mustQuery(t, c, q))
				if len(wf) != len(gf) {
					t.Fatalf("%s: streamed %d items, oracle %d", q, len(gf), len(wf))
				}
				for i := range wf {
					if wf[i] != gf[i] {
						t.Fatalf("%s: item %d differs:\nstream: %s\noracle: %s", q, i, gf[i], wf[i])
					}
				}
				if frames := c.Stats().Frames - framesBefore; q == countQuery && batch != 1 && frames != 1 {
					t.Fatalf("one-item result took %d frames, want the end frame alone", frames)
				}
			}

			wantCol, err := db.Store().ReadCollection("c")
			if err != nil {
				t.Fatal(err)
			}
			gotCol, err := c.FetchCollection("c")
			if err != nil {
				t.Fatal(err)
			}
			if !xmltree.EqualCollections(wantCol, gotCol) {
				t.Fatal("streamed collection differs from the store's")
			}
			// A projected fetch frames its re-encoded documents the same way.
			projCol, err := c.Fetch("c", cluster.FetchSpec{Keep: &xmltree.Projection{}})
			if err != nil {
				t.Fatal(err)
			}
			if projCol.Len() != docs {
				t.Fatalf("projected fetch: %d documents, want %d", projCol.Len(), docs)
			}
			for i, d := range projCol.Docs {
				if d.Name != wantCol.Docs[i].Name || xmltree.SerializeString(d) != "<Item/>" {
					t.Fatalf("projected document %d: %s %s", i, d.Name, xmltree.SerializeString(d))
				}
			}
		})
	}
}

// The byte budget flushes frames early even under a huge item batch.
func TestMaxFrameBytesBoundsFrames(t *testing.T) {
	db := newNodeDB(t, 40)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{
		BatchItems: 100000, MaxFrameBytes: 64, // a few items per frame at most
	})
	c := dialStream(t, addr, ClientOptions{})
	items, err := c.ExecuteQuery(allItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 40 {
		t.Fatalf("items = %d", len(items))
	}
	if st := c.Stats(); st.Frames < 10 {
		t.Fatalf("byte budget did not split frames: %+v", st)
	}
}

// StreamQuery delivers batches bounded by the server's BatchItems, in
// order.
func TestStreamQueryDeliversBatches(t *testing.T) {
	const docs = 25
	db := newNodeDB(t, docs)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: 7})
	c := dialStream(t, addr, ClientOptions{})
	var got xquery.Seq
	batches := 0
	err := c.StreamQuery(allItemsQuery, func(s xquery.Seq) error {
		if len(s) == 0 || len(s) > 7 {
			return fmt.Errorf("batch of %d items, want 1..7", len(s))
		}
		batches++
		got = append(got, s...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != docs {
		t.Fatalf("streamed %d items, want %d", len(got), docs)
	}
	if want := (docs + 6) / 7; batches != want {
		t.Fatalf("batches = %d, want %d", batches, want)
	}
	for i, it := range got {
		want := fmt.Sprintf("I%d", i)
		if n, _ := xquery.NodeOf(it); xquery.ItemString(n.Child("Code")) != want {
			t.Fatalf("item %d out of order", i)
		}
	}
}

// Returning ErrStop cancels the stream: StreamQuery reports success, the
// cancel is counted, and the client keeps working on fresh connections.
func TestStreamCancellation(t *testing.T) {
	db := newNodeDB(t, 50)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: 1})
	c := dialStream(t, addr, ClientOptions{})
	seen := 0
	err := c.StreamQuery(allItemsQuery, func(s xquery.Seq) error {
		seen += len(s)
		if seen >= 3 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("cancelled stream reported failure: %v", err)
	}
	if seen >= 50 {
		t.Fatal("ErrStop did not stop delivery")
	}
	st := c.Stats()
	if st.StreamCancels != 1 {
		t.Fatalf("StreamCancels = %d, want 1: %+v", st.StreamCancels, st)
	}
	if st.TransportErrors != 0 {
		t.Fatalf("cancellation counted as transport error: %+v", st)
	}
	mustCount(t, c, 50) // the client is still healthy
}

// A consumer error other than ErrStop cancels the stream and surfaces.
func TestStreamConsumerErrorPropagates(t *testing.T) {
	db := newNodeDB(t, 20)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: 1})
	c := dialStream(t, addr, ClientOptions{})
	boom := errors.New("consumer exploded")
	err := c.StreamQuery(allItemsQuery, func(xquery.Seq) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the consumer's error", err)
	}
	mustCount(t, c, 20)
}

// A node-side failure terminates the stream with FrameErr: the client
// sees a NodeError and the connection stays pooled (no transport error).
func TestStreamNodeErrorKeepsConnection(t *testing.T) {
	db := newNodeDB(t, 3)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	c := dialStream(t, addr, ClientOptions{})
	_, err := c.ExecuteQuery(`for $x in collection("ghost")/X return $x`)
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want NodeError", err)
	}
	st := c.Stats()
	if st.TransportErrors != 0 {
		t.Fatalf("FrameErr discarded the connection: %+v", st)
	}
	if st.NodeErrors == 0 {
		t.Fatalf("node error not counted: %+v", st)
	}
	mustCount(t, c, 3)
}

// A corrupt record fails the node's scan, and with it the query: the
// stream ends in FrameErr carrying the decoder's error under the
// document's name, never in a truncated success, whether the client
// collects the result or streams it. The record shares its node-side scan
// chunk with a sound one.
func TestCorruptRecordFailsQueryWithFrameErr(t *testing.T) {
	const docs = 10
	path := filepath.Join(t.TempDir(), "node.db")
	db, err := engine.Open(path, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.Store().CreateCollection("c")
	for i := 0; i < docs; i++ {
		doc := xmltree.MustParseString(fmt.Sprintf("d%02d", i), fmt.Sprintf("<Item><Code>I%d</Code></Item>", i))
		if err := db.PutDocument("c", doc); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.Store().SnapshotCollection("c")
	if err != nil {
		t.Fatal(err)
	}
	page := snap.Refs[2].Page
	snap.Close()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The record of d02 starts after its page's 8-byte next-page link and
	// 2-byte used count; version 9 is unsupported.
	if _, err := f.WriteAt([]byte{9}, page*storage.PageSize+8+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: 1})
	c := dialStream(t, addr, ClientOptions{})
	const want = `storage: decode "d02": unsupported version 9`
	items, err := c.ExecuteQuery(allItemsQuery)
	var ne *NodeError
	if !errors.As(err, &ne) || !strings.Contains(ne.Msg, want) {
		t.Fatalf("query over a corrupt record: %d items, err = %v, want a node error %q", len(items), err, want)
	}
	streamed := 0
	err = c.StreamQuery(allItemsQuery, func(s xquery.Seq) error {
		streamed += len(s)
		return nil
	})
	if !errors.As(err, &ne) || !strings.Contains(ne.Msg, want) {
		t.Fatalf("streamed query over a corrupt record: %d items, err = %v, want a node error %q", streamed, err, want)
	}
	if st := c.Stats(); st.TransportErrors != 0 {
		t.Fatalf("FrameErr discarded the connection: %+v", st)
	}
}

// A link cut in the middle of a frame stream must never yield a
// truncated-but-successful result: StreamQuery (which cannot retry after
// delivery) errors, and ExecuteQuery either errors or retries into the
// complete result.
func TestMidStreamCutNeverTruncates(t *testing.T) {
	const docs = 40
	db := newNodeDB(t, docs)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: 1})
	p := newFaultProxy(t, addr)
	c := dialStream(t, addr, ClientOptions{}) // direct, for warm-up comparisons
	want, err := c.ExecuteQuery(allItemsQuery)
	if err != nil {
		t.Fatal(err)
	}

	pc := dialStream(t, p.addr(), ClientOptions{RequestTimeout: 2 * time.Second})
	p.cutResponseAfter(600) // lands a few frames into the stream
	seen := 0
	err = pc.StreamQuery(allItemsQuery, func(s xquery.Seq) error {
		seen += len(s)
		return nil
	})
	if err == nil {
		t.Fatalf("cut stream reported success after %d/%d items", seen, docs)
	}
	if seen >= docs {
		t.Fatalf("saw all %d items despite the cut", seen)
	}

	// ExecuteQuery rolls back and retries on a fresh connection: the
	// result is complete, never truncated.
	p.cutResponseAfter(600)
	got, err := pc.ExecuteQuery(allItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("retried stream returned %d items, want %d", len(got), len(want))
	}
	if st := pc.Stats(); st.Retries == 0 {
		t.Fatalf("cut did not trigger a retry: %+v", st)
	}
}

// A response larger than the client's limit surfaces as a NodeError
// before the decoder allocates for it, and is never retried.
func TestOversizeResponseIsNodeError(t *testing.T) {
	db := newNodeDB(t, 1)
	big := strings.Repeat("x", 64<<10)
	doc := xmltree.MustParseString("big", "<Item><Code>BIG</Code><Blob>"+big+"</Blob></Item>")
	if err := db.PutDocument("c", doc); err != nil {
		t.Fatal(err)
	}
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	c := dialStream(t, addr, ClientOptions{MaxMessageBytes: 4 << 10})
	_, err := c.ExecuteQuery(allItemsQuery)
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want NodeError", err)
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("error does not explain the limit: %v", err)
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Fatalf("oversize response was retried: %+v", st)
	}
	mustCount(t, c, 2) // small responses still flow
}

// A request larger than the server's limit is answered with an error
// response and the connection dropped — the server never allocates for
// the declared size.
func TestOversizeRequestRejectedByServer(t *testing.T) {
	db := newNodeDB(t, 1)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{MaxMessageBytes: 4 << 10})
	c := dialStream(t, addr, ClientOptions{})
	big := strings.Repeat("y", 64<<10)
	doc := xmltree.MustParseString("big", "<Item><Blob>"+big+"</Blob></Item>")
	err := c.StoreDocument("c", doc)
	if err == nil {
		t.Fatal("oversize request accepted")
	}
	var ne *NodeError
	if !errors.As(err, &ne) || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want NodeError naming the limit", err)
	}
	mustCount(t, c, 1) // the server survived and still answers
}
