// Quickstart: fragment a small collection of Item documents horizontally,
// verify the correctness rules of the paper's Section 3.3, publish the
// fragments to two nodes and run queries through the PartiX middleware.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"partix"
)

func main() {
	dir, err := os.MkdirTemp("", "partix-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A tiny C_items collection (the paper's Figure 1(b)): one document
	// per store item.
	docs := []string{
		`<Item id="1"><Code>I1</Code><Name>Blue Train</Name><Description>a good jazz record</Description><Section>CD</Section></Item>`,
		`<Item id="2"><Code>I2</Code><Name>Metropolis</Name><Description>classic movie</Description><Section>DVD</Section></Item>`,
		`<Item id="3"><Code>I3</Code><Name>Kind of Blue</Name><Description>excellent album</Description><Section>CD</Section></Item>`,
		`<Item id="4"><Code>I4</Code><Name>Go Guide</Name><Description>good reading</Description><Section>Book</Section></Item>`,
	}
	col := partix.NewCollection("items")
	for i, xml := range docs {
		doc, err := partix.ParseDocument(fmt.Sprintf("i%d", i+1), xml)
		if err != nil {
			log.Fatal(err)
		}
		col.Add(doc)
	}

	// Figure 2(a): horizontal fragments by Section, plus a complement.
	fCD, err := partix.Horizontal("F1cd", `/Item/Section = "CD"`)
	if err != nil {
		log.Fatal(err)
	}
	fRest, err := partix.Horizontal("F2rest", `/Item/Section != "CD"`)
	if err != nil {
		log.Fatal(err)
	}
	scheme := &partix.Scheme{Collection: "items", Fragments: []*partix.Fragment{fCD, fRest}}

	// The three correctness rules: completeness, disjointness,
	// reconstruction (Section 3.3).
	if err := scheme.Check(col); err != nil {
		log.Fatal(err)
	}
	fmt.Println("fragmentation is correct: complete, disjoint, reconstructible")

	// Two nodes, each running the embedded XML engine.
	sys := partix.NewSystem(partix.GigabitEthernet)
	for i := 0; i < 2; i++ {
		db, err := partix.OpenEngine(filepath.Join(dir, fmt.Sprintf("node%d.db", i)))
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		sys.AddNode(partix.NewLocalNode(fmt.Sprintf("node%d", i), db))
	}

	// Publish: fragment the collection and distribute it.
	err = sys.Publish(col, scheme, map[string]string{"F1cd": "node0", "F2rest": "node1"},
		partix.PublishOptions{CheckCorrectness: true})
	if err != nil {
		log.Fatal(err)
	}

	// A query whose predicate matches the fragmentation runs on one node.
	run(sys, `for $i in collection("items")/Item where $i/Section = "CD" return $i/Name`)
	// A text search is broadcast and the partial results united.
	run(sys, `for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`)
	// A count is composed by summing per-fragment counts.
	run(sys, `count(for $i in collection("items")/Item return $i)`)
}

func run(sys *partix.System, query string) {
	res, err := sys.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n  strategy=%s fragments=%v\n", query, res.Strategy, res.Fragments)
	for _, it := range res.Items {
		if n, ok := partix.ItemNode(it); ok {
			fmt.Printf("  %s\n", partix.NodeString(n))
		} else {
			fmt.Printf("  %s\n", partix.ItemString(it))
		}
	}
}
