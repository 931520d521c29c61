package main

import (
	"fmt"
	"math"
	"math/rand"

	"partix/internal/fragmentation"
	"partix/internal/toxgene"
	"partix/internal/xbench"
	"partix/internal/xmlschema"
	"partix/internal/xmltree"
)

// queryText is one distinct query of a workload and the template it was
// built from. Latencies are summarized per template, so a workload may
// mix templates of different cost without making its quantiles bimodal.
type queryText struct {
	tmpl int
	text string
}

// workload is one set of inputs the benchmark runs: a generated
// collection, how it is fragmented and placed, and the seeded op list.
type workload struct {
	name string
	// nodes is how many storage nodes the fragmented deployment has;
	// fragment i of the scheme is placed on node i.
	nodes     int
	templates []string
	// period is how many ops it takes the op list to repeat its template
	// mix; the timed loop stops only at a multiple of it.
	period int
	writer bool

	generate func(seed int64, scale float64) *xmltree.Collection
	scheme   func() *fragmentation.Scheme
	// ops returns the distinct query texts and the op list as indexes
	// into them. docs is the generated collection's document count.
	ops func(r *rand.Rand, docs int) (texts []queryText, list []int)
}

// scaled returns base scaled down for smoke runs, never below min.
func scaled(base int, scale float64, min int) int {
	n := int(math.Round(float64(base) * scale))
	if n < min {
		n = min
	}
	return n
}

// sections is the Section vocabulary of the generated Item documents, in
// the generator's order (CD holds the most items, Garden the fewest).
var sections = []string{"CD", "DVD", "Book", "Game", "Software", "Hardware", "Toy", "Garden"}

// sectionGroups deals the sections round-robin onto four fragments, which
// keeps the generator's non-uniform section sizes visible as non-uniform
// fragment sizes.
var sectionGroups = [][2]string{
	{"CD", "Software"},
	{"DVD", "Hardware"},
	{"Book", "Toy"},
	{"Game", "Garden"},
}

// fragmentOfSection is the index into sectionGroups holding a section.
func fragmentOfSection(section string) int {
	for i, g := range sectionGroups {
		if g[0] == section || g[1] == section {
			return i
		}
	}
	return -1
}

func sectionPredicate(g [2]string) string {
	return fmt.Sprintf(`(/Item/Section = %q or /Item/Section = %q)`, g[0], g[1])
}

// horizontalScheme fragments the items collection by /Item/Section into
// four horizontal fragments F1..F4.
func horizontalScheme() *fragmentation.Scheme {
	s := &fragmentation.Scheme{Collection: "items"}
	for i, g := range sectionGroups {
		s.Fragments = append(s.Fragments,
			fragmentation.MustHorizontal(fmt.Sprintf("F%d", i+1), sectionPredicate(g)))
	}
	return s
}

// hybridScheme is the paper's Figure 4 design: F1store keeps the store
// without its items, and four hybrid fragments partition /Store/Items by
// section group.
func hybridScheme() *fragmentation.Scheme {
	s := &fragmentation.Scheme{
		Collection: "store",
		SD:         true,
		Schema:     xmlschema.VirtualStore(),
		RootType:   "Store",
		Fragments: []*fragmentation.Fragment{
			fragmentation.MustVertical("F1store", "/Store", "/Store/Items"),
		},
	}
	for i, g := range sectionGroups {
		s.Fragments = append(s.Fragments,
			fragmentation.MustHybrid(fmt.Sprintf("F%ditems", i+2), "/Store/Items", nil, sectionPredicate(g)))
	}
	return s
}

// verticalScheme splits every article into prolog, body and epilog.
func verticalScheme() *fragmentation.Scheme {
	return &fragmentation.Scheme{
		Collection: "articles",
		Schema:     xmlschema.XBenchArticle(),
		RootType:   "article",
		Fragments: []*fragmentation.Fragment{
			fragmentation.MustVertical("F1papers", "/article/prolog"),
			fragmentation.MustVertical("F2papers", "/article/body"),
			fragmentation.MustVertical("F3papers", "/article/epilog"),
		},
	}
}

// Query templates. They are literal here, not imported from
// internal/workload, so a change there cannot silently change what the
// benchmark runs.
const (
	hq2 = `for $i in collection("items")/Item where $i/Code = "I%06d" return $i`
	// hq2w is HQ2 for a writer document's code.
	hq2w = `for $i in collection("items")/Item where $i/Code = "%s" return $i`
	hq4  = `for $i in collection("items")/Item where exists($i/Characteristics) return $i/Code`
	hq5  = `for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`
	hq6  = `for $i in collection("items")/Item where $i/Section = "%s" and contains($i/Description, "%s") return $i/Name`
	hq7  = `count(for $i in collection("items")/Item where $i/Section = "%s" return $i)`
	hq8  = `count(for $i in collection("items")/Item where contains($i/Description, "good") return $i)`

	yq1 = `for $i in collection("store")/Store/Items/Item where $i/Section = "CD" return $i`
	yq3 = `for $i in collection("store")/Store/Items/Item where $i/Section = "DVD" return $i`
	yq5 = `for $i in collection("store")/Store/Items/Item where contains($i/Description, "good") return $i`
	yq8 = `for $i in collection("store")/Store/Items/Item where contains($i/Description, "defective") return $i`

	vq4 = `for $a in collection("articles")/article where $a/prolog/genre = "theory" return $a/body/section/title`
	vq7 = `for $a in collection("articles")/article where contains($a/body, "defective") return $a/prolog/title`
	vq8 = `for $a in collection("articles")/article where $a/prolog/genre = "security" return $a`
	vq9 = `for $a in collection("articles")/article where $a/epilog/country = "Japan" return $a/prolog/title`
)

// hq6Words are description words of about equal frequency (each is in
// roughly a third of the descriptions), so an HQ6 text's cost depends on
// its section, not on its word.
var hq6Words = []string{
	"product", "quality", "classic", "limited", "edition", "original", "imported", "popular",
	"standard", "premium", "compact", "digital", "portable", "wireless", "vintage",
}

// Sizes of the point workload: 384 + 8×15 + 8 = 512 distinct texts, four
// times the coordinator's 128-entry plan cache.
const (
	pointCodes   = 384
	pointOpCount = 4096
	zipfS        = 1.2
)

// pointPattern fixes each template's share of the op list (HQ2 5/8,
// HQ6 2/8, HQ7 1/8): only the text within a template is drawn at random,
// so the mix of cheap and dear ops is the same for every seed.
var pointPattern = []int{0, 1, 0, 0, 1, 0, 2, 0}

// pointOps draws the horiz_small_point op list. HQ2 codes and HQ6 words
// are Zipf-distributed over a seeded shuffle; the section of HQ6 and HQ7,
// which decides how many documents the query touches, cycles in a fixed
// order.
func pointOps(r *rand.Rand, docs int) ([]queryText, []int) {
	var texts []queryText
	codes := pointCodes
	if codes > docs {
		codes = docs
	}
	hq2At := len(texts)
	for _, d := range r.Perm(docs)[:codes] {
		texts = append(texts, queryText{0, fmt.Sprintf(hq2, d)})
	}
	hq6At := len(texts)
	words := append([]string(nil), hq6Words...)
	r.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	for _, w := range words {
		for _, s := range sections {
			texts = append(texts, queryText{1, fmt.Sprintf(hq6, s, w)})
		}
	}
	hq7At := len(texts)
	for _, s := range sections {
		texts = append(texts, queryText{2, fmt.Sprintf(hq7, s)})
	}
	codeZipf := rand.NewZipf(r, zipfS, 1, uint64(codes-1))
	wordZipf := rand.NewZipf(r, zipfS, 1, uint64(len(words)-1))
	list := make([]int, pointOpCount)
	drawn := make([]int, 3)
	for i := range list {
		t := pointPattern[i%len(pointPattern)]
		section := drawn[t] % len(sections)
		drawn[t]++
		switch t {
		case 0:
			list[i] = hq2At + int(codeZipf.Uint64())
		case 1:
			list[i] = hq6At + int(wordZipf.Uint64())*len(sections) + section
		default:
			list[i] = hq7At + section
		}
	}
	return texts, list
}

// roundRobin is the op list of the workloads with a handful of fixed
// texts: each text in turn.
func roundRobin(texts ...string) func(*rand.Rand, int) ([]queryText, []int) {
	return func(*rand.Rand, int) ([]queryText, []int) {
		qs := make([]queryText, len(texts))
		list := make([]int, len(texts))
		for i, t := range texts {
			qs[i] = queryText{i, t}
			list[i] = i
		}
		return qs, list
	}
}

func smallItems(seed int64, scale float64) *xmltree.Collection {
	return toxgene.GenerateItems(toxgene.ItemsConfig{Docs: scaled(smallItemDocs, scale, 64), Seed: seed})
}

// sectionWeights are the generator's shares of the sections, in percent.
var sectionWeights = []int{24, 18, 16, 12, 10, 9, 6, 5}

// largeItems generates the large Items and then deals their sections by
// smooth weighted round-robin instead of keeping the generator's random
// draw. With only 96 documents a draw moves the smallest fragment's size
// by a quarter from seed to seed, and with it every latency; dealt, the
// four fragments have the same sizes at every seed and only the
// documents' contents depend on it.
func largeItems(seed int64, scale float64) *xmltree.Collection {
	col := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: scaled(largeItemDocs, scale, 8), Seed: seed, Large: true})
	credit := make([]int, len(sections))
	for _, d := range col.Docs {
		best := 0
		for i, w := range sectionWeights {
			credit[i] += w
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= 100
		d.Root.Child("Section").Children[0].Value = sections[best]
	}
	return col
}

// Collection sizes at scale 1. They are sized so that one run (five
// set-ups, the oracle and warm-up, the timed loop and the write probe)
// fits the driver's budget of about half a minute on two cores.
const (
	smallItemDocs = 3000 // ≈0.47 KB of XML each
	largeItemDocs = 96   // ≈40 KB each
	storeItems    = 4800 // ≈0.47 KB each, in one Store document
	articleDocs   = 48   // ≈45 KB each
)

// workloads are the five of BENCHMARK.json, in its order; why each exists
// is recorded there and in README.md.
var workloads = []*workload{
	{
		name:  "horiz_small_point",
		nodes: 4, templates: []string{"HQ2", "HQ6", "HQ7"}, period: len(pointPattern),
		generate: smallItems, scheme: horizontalScheme, ops: pointOps,
	},
	{
		name:  "horiz_large_scan",
		nodes: 4, templates: []string{"HQ4", "HQ5", "HQ8"}, period: 3,
		generate: largeItems,
		scheme:   horizontalScheme, ops: roundRobin(hq4, hq5, hq8),
	},
	{
		name:  "hybrid_ship",
		nodes: 5, templates: []string{"YQ1", "YQ3", "YQ5", "YQ8"}, period: 4,
		generate: func(seed int64, scale float64) *xmltree.Collection {
			return toxgene.GenerateStore(toxgene.StoreConfig{Items: scaled(storeItems, scale, 64), Seed: seed})
		},
		scheme: hybridScheme, ops: roundRobin(yq1, yq3, yq5, yq8),
	},
	{
		name:  "vertical_join",
		nodes: 3, templates: []string{"VQ4", "VQ7", "VQ8", "VQ9"}, period: 4,
		generate: func(seed int64, scale float64) *xmltree.Collection {
			return xbench.Generate(xbench.Config{Docs: scaled(articleDocs, scale, 6), Seed: seed})
		},
		scheme: verticalScheme, ops: roundRobin(vq4, vq7, vq8, vq9),
	},
	{
		name:  "horiz_small_rw",
		nodes: 4, templates: []string{"HQ2", "HQ6", "HQ7"}, period: len(pointPattern), writer: true,
		generate: smallItems, scheme: horizontalScheme, ops: pointOps,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// placement puts fragment i of the scheme on node i.
func placement(s *fragmentation.Scheme) map[string]string {
	p := map[string]string{}
	for i, f := range s.Fragments {
		p[f.Name] = fmt.Sprintf("n%d", i)
	}
	return p
}

// writerDocs generates n fresh Item documents for the writer of
// horiz_small_rw. Names and codes start with w/W, so they never replace a
// published document, and each has a code a point query can find.
func writerDocs(seed int64, n int) []*xmltree.Document {
	col := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: n, Seed: seed ^ 0x5eed})
	for i, d := range col.Docs {
		d.Name = fmt.Sprintf("w%06d", i)
		d.Root.Child("Code").Children[0].Value = writerCode(i)
	}
	return col.Docs
}

func writerCode(i int) string { return fmt.Sprintf("W%06d", i) }
