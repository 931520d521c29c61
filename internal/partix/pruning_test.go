package partix

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"partix/internal/fragmentation"
	"partix/internal/xmltree"
)

// pruningFixture is a fragmented deployment and the path from a
// document's root to the elements its σ predicates select.
type pruningFixture struct {
	name      string
	coll      func() *xmltree.Collection
	scheme    *fragmentation.Scheme
	placement map[string]string
	mode      fragmentation.MaterializeMode
	item      string   // root-to-item element path, e.g. "Store/Items/Item"
	fixed     []string // queries run before the drawn ones
}

// numericSections holds Items whose Section values are "0", "1" and
// "1.0": "1" and "1.0" are equal under the evaluator's comparison.
func numericSections() *xmltree.Collection {
	c := xmltree.NewCollection("items")
	for i := 0; i < 6; i++ {
		c.Add(xmltree.MustParseString(fmt.Sprintf("n%d", i), fmt.Sprintf(
			`<Item id="%d"><Code>N%d</Code><Name>n%d</Name><Description>thing %d</Description><Section>%s</Section></Item>`,
			i, i, i, i, []string{"0", "1", "1.0"}[i%3])))
	}
	return c
}

func pruningFixtures() []pruningFixture {
	return []pruningFixture{
		{
			name: "horizontal", coll: func() *xmltree.Collection { return itemsWithCDBook(16) },
			scheme:    horizontalScheme(),
			placement: map[string]string{"Fcd": "node0", "Fdvd": "node1", "Frest": "node2"},
			item:      "Item",
		},
		{
			name: "numeric", coll: numericSections,
			scheme: &fragmentation.Scheme{Collection: "items", Fragments: []*fragmentation.Fragment{
				fragmentation.MustHorizontal("F1", `/Item/Section = "1"`),
				fragmentation.MustHorizontal("Fo", `/Item/Section != "1"`),
			}},
			placement: map[string]string{"F1": "node0", "Fo": "node1"},
			item:      "Item",
		},
		{
			name: "hybrid", coll: func() *xmltree.Collection { return storeCollection(9) },
			scheme:    hybridScheme(),
			placement: map[string]string{"Fcd": "node0", "Fdvd": "node1", "Frest": "node2", "Fstore": "node3"},
			mode:      fragmentation.FragModeSD,
			item:      "Store/Items/Item",
			// Filters evaluated at or above /Store/Items see every item of
			// the store: no hybrid sibling alone can answer them.
			fixed: []string{
				`for $i in collection("store")/Store[Items/Item/Section = "DVD"]/Items/Item return $i/Code`,
				`for $i in collection("store")/Store/Items[Item/Section = "DVD"]/Item return $i/Code`,
				`count(collection("store")/Store/Items[Item/Section = "DVD"]/Item)`,
				`for $i in collection("store")/Store/Items/Item[1] return $i/Code`,
				`for $i in collection("store")/Store/Items/Item[2] return $i/Code`,
				`exists(collection("store")/Store[Items/Item/Section = "DVD"]/Items/Item[Section = "CD"])`,
			},
		},
	}
}

// pruningQueries draws queries whose where conjuncts and step predicates
// compare Item children against σ-like literals, in every position a
// constraint may or may not be taken from: where conjuncts, binding and
// path-form step predicates, predicates under not(), in a return clause
// or a nested count(), disjunctions, nested and descendant bindings —
// and predicates whose context is not the item: step predicates on an
// ancestor step of the item path and positional filters, which count the
// items under their parent. A for-binding over the document node itself
// reads only its existence.
func pruningQueries(coll, item string, rng *rand.Rand, n int) []string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	// term compares a child of the item ctx names ("$i/", or "" for a
	// step predicate's relative path).
	term := func(ctx string) string {
		path := func(field string) string {
			if ctx == "" && (field == "*" || field == "/Section") {
				return "./" + field // the grammar has no bare relative * or //
			}
			return ctx + field
		}
		if rng.Intn(4) == 0 {
			needle := pick(`"CD"`, `"D"`, `"thing"`, `"1.0"`)
			return fmt.Sprintf(`contains(%s, %s)`, path(pick("Section", "Name", "Description", "*")), needle)
		}
		field := pick("Section", "Section", "Section", "Name", "@id", "*", "/Section")
		lit := pick(`"CD"`, `"DVD"`, `"1"`, `"1.0"`, `"1.0"`, `"0"`, `1`, `1.0`)
		return fmt.Sprintf(`%s %s %s`, path(field), pick("=", "=", "=", "!=", "<"), lit)
	}
	c := fmt.Sprintf(`collection(%q)`, coll)
	last := item[strings.LastIndex(item, "/")+1:]
	// ancestor splits the item path at a random step above the item: a
	// predicate on that step reads the items through the rest of the
	// path, so its context holds every item of the document. With a
	// one-step item path the predicate sits on the item step itself.
	ancestor := func() (anc, rest, rel string) {
		steps := strings.Split(item, "/")
		if len(steps) == 1 {
			return item, "", ""
		}
		k := rng.Intn(len(steps) - 1)
		rest = strings.Join(steps[k+1:], "/")
		return strings.Join(steps[:k+1], "/"), "/" + rest, rest + "/"
	}
	var out []string
	for len(out) < n {
		var q string
		switch rng.Intn(15) {
		case 0:
			q = fmt.Sprintf(`for $i in %s/%s where %s return $i/Code`, c, item, term("$i/"))
		case 1:
			q = fmt.Sprintf(`for $i in %s/%s where %s and %s return $i/Code`, c, item, term("$i/"), term("$i/"))
		case 2:
			q = fmt.Sprintf(`for $i in %s/%s[%s] return $i/Code`, c, item, term(""))
		case 3:
			q = fmt.Sprintf(`%s(%s/%s[%s])`, pick("count", "exists", "empty"), c, item, term(""))
		case 4:
			q = fmt.Sprintf(`for $d in %s where not($d/%s[%s]) return $d/%s/Code`, c, item, term(""), item)
		case 5:
			q = fmt.Sprintf(`for $d in %s return <r>{$d/%s[%s]/Code}</r>`, c, item, term(""))
		case 6:
			q = fmt.Sprintf(`for $d in %s return <r>{count($d/%s[%s])}</r>`, c, item, term(""))
		case 7:
			q = fmt.Sprintf(`for $i in %s/%s where %s or %s return $i/Code`, c, item, term("$i/"), term("$i/"))
		case 8:
			q = fmt.Sprintf(`for $d in %s, $i in $d/%s where %s return $i/Code`, c, item, term("$i/"))
		case 9:
			q = fmt.Sprintf(`for $i in %s//%s where %s return $i/Code`, c, last, term("$i/"))
		case 10:
			anc, rest, rel := ancestor()
			q = fmt.Sprintf(`for $i in %s/%s[%s]%s return $i/Code`, c, anc, term(rel), rest)
		case 11:
			anc, rest, rel := ancestor()
			q = fmt.Sprintf(`%s(%s/%s[%s]%s)`, pick("count", "exists", "empty"), c, anc, term(rel), rest)
		case 12:
			pos := pick("[1]", "[2]")
			if rng.Intn(2) == 0 {
				pos = "[" + term("") + "]" + pos
			}
			q = fmt.Sprintf(`for $i in %s/%s%s return $i/Code`, c, item, pos)
		case 13:
			anc, rest, rel := ancestor()
			q = fmt.Sprintf(`exists(%s/%s[%s]%s[%s])`, c, anc, term(rel), rest, term(""))
		case 14:
			// The binding reads nothing but the document node's existence.
			q = fmt.Sprintf(`for $d in %s return $d/%s[%s]/Code`, c, item, term(""))
		}
		out = append(out, q)
	}
	return out
}

// TestPruningMatchesCentralized is the σ-pruning differential: whatever
// fragments the query service prunes or skips, a fragmented deployment
// answers every drawn query with the multiset a centralized one gives.
func TestPruningMatchesCentralized(t *testing.T) {
	for _, fx := range pruningFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			frag := newTestSystem(t, len(fx.placement))
			err := frag.Publish(fx.coll(), fx.scheme, fx.placement,
				PublishOptions{Mode: fx.mode, CheckCorrectness: true})
			if err != nil {
				t.Fatal(err)
			}
			central := newTestSystem(t, 1)
			if err := central.Publish(fx.coll(), nil, map[string]string{"": "node0"}, PublishOptions{}); err != nil {
				t.Fatal(err)
			}
			drawn := pruningQueries(fx.scheme.Collection, fx.item, rand.New(rand.NewSource(38)), 300)
			for _, q := range append(fx.fixed, drawn...) {
				a, err := frag.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				b, err := central.Query(q)
				if err != nil {
					t.Fatalf("%s (centralized): %v", q, err)
				}
				as, bs := itemsAsStrings(a.Items), itemsAsStrings(b.Items)
				sort.Strings(as)
				sort.Strings(bs)
				if !equalStrings(as, bs) {
					t.Errorf("%s: fragmented %d items via %v, centralized %d", q, len(as), a.Fragments, len(bs))
				}
			}
		})
	}
}
