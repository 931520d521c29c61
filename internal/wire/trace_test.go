package wire

// Coverage for traced queries: the node's per-step spans ride home in
// the FrameEnd trailer of the same stream an untraced query uses.

import (
	"testing"

	"partix/internal/obs"
	"partix/internal/xquery"
)

// collect runs Query and accumulates the delivered batches.
func collect(c *Client, q, tag string, trace bool) (xquery.Seq, []obs.Span, error) {
	var out xquery.Seq
	spans, err := c.Query(q, tag, trace, func(s xquery.Seq) error {
		out = append(out, s...)
		return nil
	})
	return out, spans, err
}

func TestTracedQueryReturnsSpans(t *testing.T) {
	db := newNodeDB(t, 12)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{BatchItems: 5})
	c := dialStream(t, addr, ClientOptions{})

	framesBefore := c.Stats().Frames
	plain, spans, err := collect(c, allItemsQuery, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if spans != nil {
		t.Fatalf("untraced query returned spans: %v", spans)
	}
	untracedFrames := c.Stats().Frames - framesBefore
	items, spans, err := collect(c, allItemsQuery, obs.NewTraceID(), true)
	if err != nil {
		t.Fatal(err)
	}
	if frames := c.Stats().Frames - framesBefore - untracedFrames; frames != untracedFrames || frames != 3 {
		t.Fatalf("traced run took %d frames, untraced %d, want 3 each", frames, untracedFrames)
	}
	got, want := fingerprint(t, items), fingerprint(t, plain)
	if len(got) != len(want) {
		t.Fatalf("traced result has %d items, untraced %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("traced item %d = %q, want %q", i, got[i], want[i])
		}
	}

	names := []string{"parse", "plan", "execute", "serialize"}
	if len(spans) != len(names) {
		t.Fatalf("got %d spans (%v), want %d", len(spans), spans, len(names))
	}
	for i, s := range spans {
		if s.Name != names[i] {
			t.Errorf("span %d = %q, want %q", i, s.Name, names[i])
		}
		if s.Duration < 0 {
			t.Errorf("span %q has negative duration %v", s.Name, s.Duration)
		}
	}
	if spans[2].Detail != "items=12" {
		t.Errorf("execute span detail = %q, want items=12", spans[2].Detail)
	}
}

func TestTracedQueryNodeError(t *testing.T) {
	db := newNodeDB(t, 3)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	c := dialStream(t, addr, ClientOptions{})
	if _, _, err := collect(c, `syntax error here`, obs.NewTraceID(), true); err == nil {
		t.Fatal("traced parse error not propagated")
	}
}
