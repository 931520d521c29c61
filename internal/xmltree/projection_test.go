package xmltree

import (
	"strings"
	"testing"
)

func TestParseProjectionRoundTrip(t *testing.T) {
	built := &Projection{}
	body := built.Add("body")
	body.Add("section").Add("title").KeepWhole()
	built.Add("prolog").Add("genre").KeepWhole()
	built.Add("epilog")
	for _, want := range []string{
		"*",
		"{}",
		"{Code*,Description*}",
		"{a,b{c*},d{e{f}}}",
		built.String(),
	} {
		p, err := ParseProjection(want)
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if got := p.String(); got != want {
			t.Fatalf("ParseProjection(%q).String() = %q", want, got)
		}
	}
	if p, _ := ParseProjection("*"); !p.Whole() {
		t.Fatal(`"*" does not keep everything`)
	}
	p, _ := ParseProjection(built.String())
	if sub, ok := p.Child("body"); !ok || sub == nil {
		t.Fatal("body not kept as a trie")
	} else if _, ok := sub.Child("section"); !ok {
		t.Fatal("body/section lost")
	}
	if sub, ok := p.Child("epilog"); !ok || sub == nil || sub.Whole() {
		t.Fatal("epilog should keep its root only")
	}
}

func TestParseProjectionRejects(t *testing.T) {
	for _, s := range []string{
		"", "{", "}", "**", "{*}", "{a", "{a}}", "{a}x", "x{a}",
		"{b,a}",   // out of order
		"{a,a}",   // duplicate
		"{a,}",    // empty name
		"{,a}",    // empty name
		"{a{}}",   // String never writes empty braces below the root
		"{a**}",   // double marker
		"{a*{b}}", // whole and a trie at once
		"{a{*}}",  // a whole child is written a*
		"{a b}x",
	} {
		if p, err := ParseProjection(s); err == nil {
			t.Errorf("ParseProjection(%q) accepted as %s", s, p)
		}
	}
}

// nested returns a trie text of depth brace groups, one inside the other.
func nested(depth int) string {
	return strings.Repeat("{a", depth) + strings.Repeat("}", depth)
}

func TestParseProjectionDepthCap(t *testing.T) {
	if _, err := ParseProjection(nested(MaxProjectionDepth)); err != nil {
		t.Fatalf("depth %d rejected: %v", MaxProjectionDepth, err)
	}
	_, err := ParseProjection(nested(MaxProjectionDepth + 1))
	if err == nil || !strings.Contains(err.Error(), "deeper than") {
		t.Fatalf("depth %d: err = %v", MaxProjectionDepth+1, err)
	}
}

// braceDepth is the deepest nesting of brace groups in s.
func braceDepth(s string) int {
	depth, deepest := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
			deepest = max(deepest, depth)
		case '}':
			depth--
		}
	}
	return deepest
}

// FuzzParseProjection: the parser reads projection text from the wire, so
// no input may panic it, nothing nested past the depth cap may pass, and
// whatever it accepts must print back to exactly the same text.
func FuzzParseProjection(f *testing.F) {
	f.Add(nested(MaxProjectionDepth + 1))
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseProjection(s)
		if err != nil {
			return
		}
		if d := braceDepth(s); d > MaxProjectionDepth {
			t.Fatalf("accepted nesting %d past the cap %d", d, MaxProjectionDepth)
		}
		if got := p.String(); got != s {
			t.Fatalf("ParseProjection(%q).String() = %q", s, got)
		}
	})
}
