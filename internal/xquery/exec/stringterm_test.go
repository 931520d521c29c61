package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// stringRef is the reference a string term must agree with: the test
// applied to the node's whole string value.
func stringRef(fn strFn, n *xmltree.Node, needle string) bool {
	v := n.Text()
	switch fn {
	case fnContains:
		return strings.Contains(v, needle)
	case fnStartsWith:
		return strings.HasPrefix(v, needle)
	default:
		return strings.HasSuffix(v, needle)
	}
}

// checkStringTerm compares stringTermHit with stringRef on every node of
// root's subtree, attributes and text nodes included.
func checkStringTerm(t *testing.T, x *executor, root *xmltree.Node, fn strFn, needle string) {
	t.Helper()
	root.Walk(func(n *xmltree.Node) bool {
		tm := &term{kind: termString, fn: fn, needle: needle}
		if got, want := x.stringTermHit(tm, n), stringRef(fn, n, needle); got != want {
			t.Fatalf("fn %d, needle %q over %q (node %s %q): got %v, want %v",
				fn, needle, n.Text(), n.Kind, n.Name, got, want)
		}
		return true
	})
}

// randTextTree builds a tree whose string value is spread over many short
// text nodes: mixed content, adjacent text siblings, multi-byte UTF-8
// characters split across nodes, empty and attribute-only elements.
func randTextTree(r *rand.Rand, depth int) *xmltree.Node {
	pieces := []string{"", "a", "b", "ab", "ba", "\xc3", "\xa9", "é", "aé", "xyz"}
	el := xmltree.NewElement("e")
	for i, n := 0, r.Intn(5); i < n; i++ {
		switch k := r.Intn(6); {
		case k == 0:
			el.Append(xmltree.NewAttr(fmt.Sprintf("a%d", i), pieces[r.Intn(len(pieces))]))
		case k < 3 && depth < 3:
			el.Append(randTextTree(r, depth+1))
		default:
			el.Append(xmltree.NewText(pieces[r.Intn(len(pieces))]))
		}
	}
	return el
}

// TestStringTermHitRandom checks the streaming matcher against
// strings.Contains/HasPrefix/HasSuffix over n.Text() on random trees.
// Needles are drawn from each tree's own string value (so most of them
// hit, and many span text nodes) and from a fixed set of short strings.
func TestStringTermHitRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := &executor{}
	fixed := []string{"", "a", "ab", "é", "\xa9", "\xc3\xa9a", "bab", "xyzxyz", "zz"}
	for i := 0; i < 2000; i++ {
		root := randTextTree(r, 0)
		v := root.Text()
		needle := fixed[r.Intn(len(fixed))]
		if v != "" && r.Intn(2) == 0 {
			lo := r.Intn(len(v))
			needle = v[lo : lo+r.Intn(len(v)-lo+1)]
		}
		for fn := fnContains; fn <= fnEndsWith; fn++ {
			checkStringTerm(t, x, root, fn, needle)
		}
	}
}

// FuzzStringTerm: for any parsed document, every node, needle and string
// function, the streaming matcher agrees with the test on n.Text(). The
// seeds put needles across element boundaries, across a multi-byte
// character's neighbour, and over attribute values Text excludes.
func FuzzStringTerm(f *testing.F) {
	for _, seed := range []struct {
		xml, needle string
		fn          uint8
	}{
		{`<a><b>de</b><c>fective</c></a>`, "defective", 0},
		{`<a><b>x</b><c>y</c><d>z</d></a>`, "xyz", 0},
		{`<a><b>caf</b><c>é</c></a>`, "fé", 0},
		{`<a><b>caf</b><c>é</c></a>`, "afé", 2},
		{`<a><b>ab</b><c>cd</c></a>`, "abc", 1},
		{`<a x="zz"><b>z</b><c>z</c></a>`, "zz", 0},
		{`<a x="zz"/>`, "", 0},
		{`<a><b/><c>q</c></a>`, "", 2},
		{`<a><b>aaab</b><c>aab</c></a>`, "baab", 0},
	} {
		f.Add(seed.xml, seed.needle, seed.fn)
	}
	f.Fuzz(func(t *testing.T, xml, needle string, fn uint8) {
		doc, err := xmltree.ParseString("f", xml)
		if err != nil {
			return
		}
		checkStringTerm(t, &executor{}, doc.Root, strFn(fn%3), needle)
	})
}

// TestStringTermAllocsIndependentOfSubtreeSize: a contains over a large
// element streams over its text nodes instead of building its string
// value, so the VQ7-shaped filter that misses allocates the same bytes
// and allocations per candidate at 4 and at 40 body sections. Building
// the value costs allocations and bytes proportional to the body.
func TestStringTermAllocsIndependentOfSubtreeSize(t *testing.T) {
	const docs = 64
	e, err := xquery.Parse(`for $a in collection("articles")/article where contains($a/body, "defective") return $a/prolog/title`)
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := Compile(e)
	if !ok {
		t.Fatal("Compile declined")
	}
	type cost struct{ allocs, bytes float64 }
	var costs []cost
	for _, sections := range []int{4, 40} {
		var all []*xmltree.Document
		for d := 0; d < docs; d++ {
			body := xmltree.NewElement("body")
			for s := 0; s < sections; s++ {
				body.Append(xmltree.NewElement("section",
					xmltree.NewElement("title", xmltree.NewText(fmt.Sprintf("section %d", s))),
					xmltree.NewElement("p", xmltree.NewText("the defect was found in the firmware")),
					xmltree.NewElement("p", xmltree.NewText("no effective fix yet"))))
			}
			all = append(all, xmltree.NewDocument(fmt.Sprintf("a%d", d), xmltree.NewElement("article",
				xmltree.NewElement("prolog", xmltree.NewElement("title", xmltree.NewText("t"))), body)))
		}
		src := newMemSource(xmltree.NewCollection("articles", all...))
		run := func() {
			if items, err := prog.Run(src); err != nil || len(items) != 0 {
				t.Fatalf("%d sections: %d items, err %v; want none", sections, len(items), err)
			}
		}
		run() // warm up
		const runs, windows = 20, 5
		allocs := testing.AllocsPerRun(runs, run)
		// TotalAlloc counts every goroutine's allocations, so a window
		// can only gain bytes from other work: the least of several is
		// the query's own.
		bytes := uint64(math.MaxUint64)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		costs = append(costs, cost{allocs / docs, float64(bytes) / runs / docs})
	}
	t.Logf("per candidate: %.2f allocs / %.0f B at 4 sections, %.2f allocs / %.0f B at 40", costs[0].allocs, costs[0].bytes, costs[1].allocs, costs[1].bytes)
	if costs[1].allocs > costs[0].allocs || costs[1].bytes > costs[0].bytes+1 {
		t.Fatalf("a missing contains over 40 sections costs %.2f allocs / %.0f B per candidate, over 4 sections %.2f / %.0f: want the same",
			costs[1].allocs, costs[1].bytes, costs[0].allocs, costs[0].bytes)
	}
}
