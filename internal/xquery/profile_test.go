package xquery

import (
	"slices"
	"testing"
)

// TestExtractWorkloadKeys pins the key grammar design.WorkloadFromProfile
// parses back. FLWOR shapes give the keys of their binding paths and
// where conjuncts; a path-form query gives the keys of its FLWOR twin (its
// step predicates are the constraints routing prunes with), and a
// binding over an earlier for-variable extends that variable's path.
func TestExtractWorkloadKeys(t *testing.T) {
	type keys struct{ paths, preds []string }
	cases := []struct {
		query string
		want  map[string]keys
	}{
		{`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
			map[string]keys{"items": {[]string{"/Item"}, []string{`/Item/Section = "CD"`}}}},
		{`for $i in collection("items")/Item where contains($i/Description, "Good") return $i`,
			map[string]keys{"items": {[]string{"/Item"}, []string{`contains(/Item/Description, "Good")`}}}},
		{`for $i in collection("items")/Item[@id >= 5] where $i/Quantity < 3 return $i`,
			map[string]keys{"items": {[]string{"/Item"}, []string{`/Item/@id >= "5"`, `/Item/Quantity < "3"`}}}},
		{`for $i in collection("items")/Item where 15 > $i/@id and exists($i/PictureList) return $i`,
			map[string]keys{"items": {[]string{"/Item", "/Item/PictureList"}, []string{`/Item/@id < "15"`}}}},
		{`for $k in collection("items")//Keyword where $k = "x" return $k`,
			map[string]keys{"items": {[]string{"//Keyword"}, []string{`//Keyword = "x"`}}}},
		{`for $a in collection("prolog")/article, $b in collection("body")/article where $a/@id = $b/@id and contains($b/body, "model") return $a/prolog/title`,
			map[string]keys{
				"prolog": {[]string{"/article"}, nil},
				"body":   {[]string{"/article"}, []string{`contains(/article/body, "model")`}},
			}},
		{`for $i in collection("items")/Item return <r>{for $p in collection("items")/Item/PictureList where $p/Picture = "a" return $p}</r>`,
			map[string]keys{"items": {[]string{"/Item", "/Item/PictureList"}, []string{`/Item/PictureList/Picture = "a"`}}}},
		{`for $i in collection("items")/Item where not($i/Section = "CD") or $i/Code = "x" return $i`,
			map[string]keys{"items": {[]string{"/Item"}, nil}}},
		{`for $i in collection("items")/Item[contains(Description, "good")] return $i`,
			map[string]keys{"items": {[]string{"/Item"}, []string{`contains(/Item/Description, "good")`}}}},
		{`for $i in collection("items")/Item where $i/Price = 100 and $i/Section = "1.0" return $i`,
			map[string]keys{"items": {[]string{"/Item"}, []string{`/Item/Price = "100"`, `/Item/Section = "1.0"`}}}},
		{`for $i in collection("items") where $i/Item/Section = "CD" return $i`,
			map[string]keys{"items": {nil, []string{`/Item/Section = "CD"`}}}},
		// Path forms.
		{`count(collection("items")/Item[Section = "CD"])`,
			map[string]keys{"items": {[]string{"/Item"}, []string{`/Item/Section = "CD"`}}}},
		{`collection("items")/Item[contains(Description, "good")]/Code`,
			map[string]keys{"items": {[]string{"/Item/Code"}, []string{`contains(/Item/Description, "good")`}}}},
		// A nested binding.
		{`for $i in collection("items")/Item, $p in $i/PictureList where $p/Picture = "a" return $p`,
			map[string]keys{"items": {[]string{"/Item", "/Item/PictureList"}, []string{`/Item/PictureList/Picture = "a"`}}}},
	}
	for _, tc := range cases {
		got := ExtractWorkloadKeys(MustParse(tc.query))
		if len(got) != len(tc.want) {
			t.Errorf("%s: keys for %d collections, want %d: %+v", tc.query, len(got), len(tc.want), got)
			continue
		}
		for coll, w := range tc.want {
			k := got[coll]
			if k == nil {
				t.Errorf("%s: no keys for %s", tc.query, coll)
				continue
			}
			if !slices.Equal(k.Paths, w.paths) {
				t.Errorf("%s: %s paths = %q, want %q", tc.query, coll, k.Paths, w.paths)
			}
			if !slices.Equal(k.Predicates, w.preds) {
				t.Errorf("%s: %s predicates = %q, want %q", tc.query, coll, k.Predicates, w.preds)
			}
		}
	}
}
