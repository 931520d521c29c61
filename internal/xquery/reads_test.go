package xquery

import (
	"slices"
	"strings"
	"testing"
)

// renderRead prints a read as its label path, then "exists" for an
// existence read, "@ctx" with the filter's context for a filtered one and
// "where" when it lies in a where conjunct.
func renderRead(r Read) string {
	var b strings.Builder
	path := func(steps []LabelStep) {
		if len(steps) == 0 {
			b.WriteString("/")
		}
		for _, st := range steps {
			b.WriteString("/")
			if st.Descendant {
				b.WriteString("/")
			}
			if st.Attr {
				b.WriteString("@")
			}
			b.WriteString(st.Name)
		}
	}
	path(r.Steps)
	if r.Existence {
		b.WriteString(" exists")
	}
	if r.Filtered {
		b.WriteString(" @")
		path(r.Context)
	}
	if r.Conjunct != nil {
		b.WriteString(" where")
	}
	return b.String()
}

func TestExtractReads(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  []string
	}{
		{`for $i in collection("s")/Store/Items/Item where $i/Section = "CD" return $i/Code`, []string{
			"/Store/Items/Item exists",
			"/Store/Items/Item/Section @/Store/Items/Item where",
			"/Store/Items/Item/Code",
		}},
		// A step predicate is evaluated at its step, also for a relative
		// path of several steps.
		{`for $i in collection("s")/Store[Items/Item/Section = "DVD"]/Items/Item return $i/Code`, []string{
			"/Store/Items/Item exists",
			"/Store/Items/Item/Section @/Store",
			"/Store/Items/Item/Code",
		}},
		// A positional filter counts the step's nodes under their parent.
		{`collection("s")/Store/Items/Item[Section = "CD"][2]/Code`, []string{
			"/Store/Items/Item/Code",
			"/Store/Items/Item/Section @/Store/Items/Item",
			"/Store/Items/Item exists @/Store/Items",
		}},
		// A where conjunct's context is the binding of the variable each
		// read starts from; a predicate inside it has its own.
		{`for $s in collection("s")/Store, $i in $s/Items/Item where $s/Name = "x" and $i/Tags[. = "y"] return $i`, []string{
			"/Store exists",
			"/Store/Items/Item exists",
			"/Store/Name @/Store where",
			"/Store/Items/Item/Tags @/Store/Items/Item where",
			"/Store/Items/Item/Tags @/Store/Items/Item/Tags where",
			"/Store/Items/Item",
		}},
		// Variables bound to the documents, lets, quantifiers, text() and
		// attribute steps, // steps.
		{`for $d in collection("a") let $t := $d/article/prolog/title/text() return some $x in $d//author satisfies $x/@id = $t`, []string{
			"/ exists",
			"/article/prolog/title exists",
			"//author",
			"//author/@id",
			"/article/prolog/title",
		}},
	} {
		got := ExtractReads(MustParse(tc.query))
		var lines []string
		for _, r := range got.Paths {
			lines = append(lines, renderRead(r))
		}
		if got.Unresolved || !slices.Equal(lines, tc.want) {
			t.Errorf("%s: unresolved %v, reads\n%s\nwant\n%s", tc.query, got.Unresolved,
				strings.Join(lines, "\n"), strings.Join(tc.want, "\n"))
		}
	}
	for _, q := range []string{
		`for $x in distinct-values(collection("a")/article/@id) return $x/title`,
		`doc("d")/article/title`,
	} {
		if !ExtractReads(MustParse(q)).Unresolved {
			t.Errorf("%s: resolved", q)
		}
	}
}

// TestExtractReadsTagsOutermostConjunct: a read lies in the top-level
// conjunct of the outermost where clause around it, whatever FLWOR it
// sits in inside that conjunct.
func TestExtractReadsTagsOutermostConjunct(t *testing.T) {
	e := MustParse(`for $a in collection("a")/article
		where $a/prolog/genre = "g" and exists(for $s in $a/body/section where $s/title = "t" return $s)
		return $a/@id`)
	var conjuncts []Expr
	Conjuncts(e.(*FLWOR).Where, func(c Expr) { conjuncts = append(conjuncts, c) })
	want := map[string]Expr{
		"/article exists":                                          nil,
		"/article/prolog/genre @/article where":                    conjuncts[0],
		"/article/body/section exists @/article where":             conjuncts[1],
		"/article/body/section/title @/article/body/section where": conjuncts[1],
		"/article/body/section @/article/body/section where":       conjuncts[1],
		"/article/@id": nil,
	}
	reads := ExtractReads(e)
	if len(reads.Paths) != len(want) {
		t.Fatalf("%d reads, want %d", len(reads.Paths), len(want))
	}
	for _, r := range reads.Paths {
		c, ok := want[renderRead(r)]
		if !ok || r.Conjunct != c {
			t.Errorf("read %s: conjunct %v", renderRead(r), r.Conjunct)
		}
	}
}
