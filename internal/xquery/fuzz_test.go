package xquery_test

import (
	"testing"

	"partix/internal/workload"
	"partix/internal/xquery"
)

// FuzzParseFormat: Format is the text a coordinator ships — sub-queries
// and fetch filters alike — so what it prints must parse back to the same
// query. For any text that parses, Format(Parse(Format(Parse(s)))) equals
// Format(Parse(s)); and for any text at all, NormalizeQueryText is
// idempotent, so a normalized key never normalizes to a second key. The
// seeds are every workload query and the benchmark's query templates, the
// point templates with their placeholders filled in.
func FuzzParseFormat(f *testing.F) {
	for _, set := range [][]workload.Query{
		workload.Horizontal("items"), workload.Vertical("articles"), workload.Hybrid("store"),
	} {
		for _, q := range set {
			f.Add(q.Text)
		}
	}
	for _, q := range []string{
		`for $i in collection("items")/Item where $i/Code = "I000042" return $i`,
		`for $i in collection("items")/Item where $i/Code = "W000003" return $i`,
		`for $i in collection("items")/Item where exists($i/Characteristics) return $i/Code`,
		`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
		`for $i in collection("items")/Item where $i/Section = "CD" and contains($i/Description, "good") return $i/Name`,
		`count(for $i in collection("items")/Item where $i/Section = "DVD" return $i)`,
		`count(for $i in collection("items")/Item where contains($i/Description, "good") return $i)`,
		`for $i in collection("store")/Store/Items/Item where $i/Section = "CD" return $i`,
		`for $i in collection("store")/Store/Items/Item where $i/Section = "DVD" return $i`,
		`for $i in collection("store")/Store/Items/Item where contains($i/Description, "good") return $i`,
		`for $i in collection("store")/Store/Items/Item where contains($i/Description, "defective") return $i`,
		`for $a in collection("articles")/article where $a/prolog/genre = "theory" return $a/body/section/title`,
		`for $a in collection("articles")/article where contains($a/body, "defective") return $a/prolog/title`,
		`for $a in collection("articles")/article where $a/prolog/genre = "security" return $a`,
		`for $a in collection("articles")/article where $a/epilog/country = "Japan" return $a/prolog/title`,
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if n := xquery.NormalizeQueryText(s); xquery.NormalizeQueryText(n) != n {
			t.Fatalf("NormalizeQueryText is not idempotent on %q: %q, then %q", s, n, xquery.NormalizeQueryText(n))
		}
		e, err := xquery.Parse(s)
		if err != nil {
			return
		}
		once := xquery.Format(e)
		back, err := xquery.Parse(once)
		if err != nil {
			t.Fatalf("Format(Parse(%q)) = %q does not parse: %v", s, once, err)
		}
		if twice := xquery.Format(back); twice != once {
			t.Fatalf("Format is not a fixed point for %q:\n%s\n%s", s, once, twice)
		}
	})
}
