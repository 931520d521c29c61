package fragmentation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"partix/internal/xmltree"
)

// randomItems builds a random Citems-like collection with varied sections,
// descriptions and optional subtrees.
func randomItems(r *rand.Rand) *xmltree.Collection {
	sections := []string{"CD", "DVD", "Book", "Game"}
	words := []string{"good", "bad", "fine", "plain", "rare"}
	c := xmltree.NewCollection("Citems")
	n := 1 + r.Intn(12)
	for i := 0; i < n; i++ {
		c.Add(mkItem(
			fmt.Sprintf("i%02d", i),
			fmt.Sprintf("I%02d", i),
			sections[r.Intn(len(sections))],
			words[r.Intn(len(words))]+" thing",
			r.Intn(2) == 0,
		))
	}
	return c
}

// TestQuickHorizontalPartitionRules: any partition of documents by section
// equality plus a complement satisfies all three correctness rules.
func TestQuickHorizontalPartitionRules(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomItems(r)
		s := &Scheme{Collection: "Citems", Fragments: []*Fragment{
			MustHorizontal("Fcd", `/Item/Section = "CD"`),
			MustHorizontal("Fdvd", `/Item/Section = "DVD"`),
			MustHorizontal("Frest", `/Item/Section != "CD" and /Item/Section != "DVD"`),
		}}
		return s.Check(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVerticalRules: pruning a subtree into its own fragment always
// satisfies the rules, whatever the data.
func TestQuickVerticalRules(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomItems(r)
		s := &Scheme{Collection: "Citems", Fragments: []*Fragment{
			MustVertical("F1", "/Item", "/Item/PictureList"),
			MustVertical("F2", "/Item/PictureList"),
		}}
		return s.Check(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFragmentSizesSumForHorizontal: |F1|+…+|Fn| = |C| for a correct
// horizontal partition (completeness + disjointness in numbers).
func TestQuickFragmentSizesSumForHorizontal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomItems(r)
		s := &Scheme{Collection: "Citems", Fragments: []*Fragment{
			MustHorizontal("Fgood", `contains(//Description, "good")`),
			MustHorizontal("Frest", `not(contains(//Description, "good"))`),
		}}
		frags, err := s.Apply(c)
		if err != nil {
			return false
		}
		total := 0
		for _, fc := range frags {
			total += fc.Len()
		}
		return total == c.Len() && s.Check(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHybridStoreRules: the Figure 4 hybrid design is correct for any
// generated store content.
func TestQuickHybridStoreRules(t *testing.T) {
	sections := []string{"CD", "DVD", "Book"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var items string
		for i := 0; i < r.Intn(10); i++ {
			items += fmt.Sprintf(
				`<Item id="%d"><Code>I%d</Code><Name>n</Name><Description>d</Description><Section>%s</Section></Item>`,
				i+1, i, sections[r.Intn(len(sections))])
		}
		doc := xmltree.MustParseString("store", `<Store>
		  <Sections><Section><Code>S</Code><Name>x</Name></Section></Sections>
		  <Items>`+items+`</Items>
		  <Employees><Employee>e</Employee></Employees></Store>`)
		c := xmltree.NewCollection("Cstore", doc)
		s := &Scheme{Collection: "Cstore", SD: true, Fragments: []*Fragment{
			MustHybrid("F1", "/Store/Items", nil, `/Item/Section = "CD"`),
			MustHybrid("F2", "/Store/Items", nil, `/Item/Section = "DVD"`),
			MustHybrid("F3", "/Store/Items", nil, `/Item/Section != "CD" and /Item/Section != "DVD"`),
			MustVertical("F4", "/Store", "/Store/Items"),
		}}
		return s.Check(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReconstructionIsOrderInsensitive: reconstructing from fragments
// in any order yields the same collection. Reconstruct consumes its
// fragments, so each order gets a fresh Apply.
func TestQuickReconstructionIsOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomItems(r)
		s := &Scheme{Collection: "Citems", Fragments: []*Fragment{
			MustVertical("F1", "/Item", "/Item/PictureList"),
			MustVertical("F2", "/Item/PictureList"),
		}}
		frags, err := s.Apply(c)
		if err != nil {
			return false
		}
		re1, err1 := s.Reconstruct(frags)
		if frags, err = s.Apply(c); err != nil {
			return false
		}
		re2, err2 := s.Reconstruct([]*xmltree.Collection{frags[1], frags[0]})
		if err1 != nil || err2 != nil {
			return false
		}
		return xmltree.EqualCollections(re1, re2) && xmltree.EqualCollections(re1, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
