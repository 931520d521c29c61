// Distributed: a PartiX deployment over real TCP nodes. Two node servers
// (the same engine partixd runs) are started on loopback ports, the
// coordinator dials them with the remote driver, publishes a horizontally
// fragmented collection over the wire, and executes distributed queries.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"partix"
	"partix/internal/toxgene"
)

func main() {
	dir, err := os.MkdirTemp("", "partix-distributed-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Start two node servers, as `partixd -addr ... -db ...` would.
	var addrs []string
	for i := 0; i < 2; i++ {
		db, err := partix.OpenEngine(filepath.Join(dir, fmt.Sprintf("node%d.db", i)))
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv, err := partix.ServeNode(db, l, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, l.Addr().String())
		fmt.Printf("node%d serving on %s\n", i, l.Addr())
	}

	// The coordinator connects through the remote driver.
	sys := partix.NewSystem(partix.GigabitEthernet)
	for i, addr := range addrs {
		client, err := partix.DialNode(fmt.Sprintf("node%d", i), addr, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		sys.AddNode(client)
	}

	// Publish a fragmented collection over the wire.
	items := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: 200, Seed: 3})
	fGood, err := partix.Horizontal("Fgood", `contains(//Description, "good")`)
	if err != nil {
		log.Fatal(err)
	}
	fRest, err := partix.Horizontal("Frest", `not(contains(//Description, "good"))`)
	if err != nil {
		log.Fatal(err)
	}
	scheme := &partix.Scheme{Collection: "items", Fragments: []*partix.Fragment{fGood, fRest}}
	err = sys.Publish(items, scheme, map[string]string{"Fgood": "node0", "Frest": "node1"},
		partix.PublishOptions{CheckCorrectness: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("published 200 documents across 2 TCP nodes (Figure 2(b) design)")

	queries := []string{
		`count(for $i in collection("items")/Item where contains($i/Description, "good") return $i)`,
		`for $i in collection("items")/Item where $i/Code = "I000042" return $i/Name`,
	}
	for _, q := range queries {
		res, err := sys.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n  strategy=%s response=%v\n", q, res.Strategy, res.ResponseTime().Round(time.Microsecond))
		for _, it := range res.Items {
			if n, ok := partix.ItemNode(it); ok {
				fmt.Printf("  %s\n", partix.NodeString(n))
			} else {
				fmt.Printf("  %s\n", partix.ItemString(it))
			}
		}
	}
}
