package design

import (
	"slices"
	"testing"
)

// TestUsedChildrenReadsEveryPath: the advisor's affinity counts every
// top-level child a query reads — through a bare path, through a variable
// bound to the collection's documents, and inside a step predicate — and
// all of them for a // path, which it cannot bound.
func TestUsedChildrenReadsEveryPath(t *testing.T) {
	children := []string{"body", "epilog", "prolog"}
	for _, tc := range []struct {
		query string
		want  []string
	}{
		{`count(collection("articles")/article/body)`, []string{"body"}},
		{`for $d in collection("articles") return $d/article/epilog/country`, []string{"epilog"}},
		{`collection("articles")/article[body/section/title = "x"]/prolog/title`, []string{"body", "prolog"}},
		{`for $a in collection("articles")/article where $a/prolog/genre = "g" return $a/body`, []string{"body", "prolog"}},
		{`for $a in collection("articles")/article return $a/@id`, []string{}},
		{`collection("articles")//title`, children},
		{`for $a in collection("articles")/article return $a`, children},
	} {
		got := usedChildren(tc.query, "articles", "article", children)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: used %v, want %v", tc.query, got, tc.want)
		}
	}
}
