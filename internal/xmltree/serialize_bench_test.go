package xmltree_test

import (
	"testing"

	"partix/internal/toxgene"
	"partix/internal/xmltree"
)

// storeItem returns the first Item of a generated store: the element a
// hybrid query returns, whose size cluster.SeqBytes counts per result.
func storeItem(b *testing.B) *xmltree.Node {
	root := toxgene.GenerateStore(toxgene.StoreConfig{Items: 1, Seed: 1}).Docs[0].Root
	var item *xmltree.Node
	root.Walk(func(n *xmltree.Node) bool {
		if item == nil && n.Kind == xmltree.ElementNode && n.Name == "Item" {
			item = n
		}
		return item == nil
	})
	if item == nil {
		b.Fatal("the store holds no Item")
	}
	return item
}

var sizeSink int

func BenchmarkSerializedSize(b *testing.B) {
	item := storeItem(b)
	b.SetBytes(int64(len(xmltree.NodeString(item))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sizeSink = xmltree.NodeSerializedSize(item)
	}
}

var stringSink string

// BenchmarkSerializeStore serializes a 2,000-item store document.
func BenchmarkSerializeStore(b *testing.B) {
	doc := toxgene.GenerateStore(toxgene.StoreConfig{Items: 2000, Seed: 1}).Docs[0]
	b.SetBytes(int64(xmltree.SerializedSize(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stringSink = xmltree.SerializeString(doc)
	}
}
