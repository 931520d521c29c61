package storage

import (
	"sync"

	"partix/internal/xmltree"
)

// A Batch is records that passed DecodeBatch's check (CheckBatch), kept
// as their bytes: a query frame's node items as the coordinator receives
// them. Its trees are built on the first call to Node of any of its
// DeferredNodes, all of them at once, in one pass 2 of the decoder over
// the same bytes; the check already did what could fail, so the build
// cannot. Until then a Batch holds the records, which alias its caller's
// buffer (a frame's payload), and pass 1's counts; once built it holds
// the trees and drops both.
type Batch struct {
	once   sync.Once
	recs   [][]byte
	borrow []int
	lent   []lentTable
	counts counts
	roots  []*xmltree.Node
	nodes  []DeferredNode
	// inline holds the nodes of a batch of up to len(inline) records,
	// which then cost no allocation of their own: most frames of a point
	// query carry a node or two.
	inline [4]DeferredNode
}

// A DeferredNode is one record of a Batch: a node item whose tree is
// built on first use. It is a pointer into its Batch, so keeping it keeps
// the batch — its records until it is built, its trees after.
type DeferredNode struct {
	b    *Batch
	i    int
	size int
}

// CheckBatch runs pass 1 of DecodeBatch over recs and borrow: everything
// DecodeBatch verifies, failing with the error DecodeBatch returns, and
// nothing built. The Batch it returns keeps recs and borrow, which the
// caller must not modify.
func CheckBatch(recs [][]byte, borrow []int) (*Batch, error) {
	var d decoder
	if _, i, err := d.check(recs, borrow, nil); err != nil {
		return nil, batchError(i, err)
	}
	b := &Batch{recs: recs, borrow: borrow, lent: d.lent, counts: d.counts}
	if len(recs) <= len(b.inline) {
		b.nodes = b.inline[:len(recs)]
	} else {
		b.nodes = make([]DeferredNode, len(recs))
	}
	for i, rec := range recs {
		b.nodes[i] = DeferredNode{b: b, i: i, size: len(rec)}
	}
	return b, nil
}

// Node returns record i's item.
func (b *Batch) Node(i int) *DeferredNode { return &b.nodes[i] }

// build is pass 2 over the checked records.
func (b *Batch) build() {
	d := decoder{borrow: b.borrow, lent: b.lent, counts: b.counts}
	b.roots = d.build(b.recs, nil)
	b.recs, b.borrow, b.lent, b.counts = nil, nil, nil, counts{}
}

// Node returns the node's tree, building its batch's trees on the first
// call to Node of any of its nodes; every call returns the same tree. It
// is safe for concurrent use.
func (n *DeferredNode) Node() *xmltree.Node {
	n.b.once.Do(n.b.build)
	return n.b.roots[n.i]
}

// Len is the length of the node's record bytes: what the link carried
// for it (its frame's table copy included, for the item that made it),
// and the memory it holds until built.
func (n *DeferredNode) Len() int { return n.size }
