package design

import (
	"testing"

	"partix/internal/algebra"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// TestNegateComplementsComparisons: on a single-valued path each
// comparison's complement holds exactly when it does not, and
// complementing twice gives the operator back.
func TestNegateComplementsComparisons(t *testing.T) {
	doc := xmltree.MustParseString("i7", `<Item id="7"><Code>I7</Code></Item>`)
	for _, op := range []xquery.BinaryOp{xquery.OpEq, xquery.OpNe, xquery.OpLt, xquery.OpLe, xquery.OpGt, xquery.OpGe} {
		pred := &xquery.Binary{Op: op,
			Left:  xquery.MustParseDefinition("/Item/@id"),
			Right: &xquery.StringLit{Value: "7"}}
		neg := negate(pred)
		if algebra.Holds(pred, doc.Root) == algebra.Holds(neg, doc.Root) {
			t.Errorf("%s: %s is not its complement", xquery.FormatDefinition(pred), xquery.FormatDefinition(neg))
		}
		if back := negate(neg).(*xquery.Binary); back.Op != op {
			t.Errorf("op %s: double negation gives %s", op, back.Op)
		}
	}
	contains := xquery.MustParseDefinition(`contains(/Item/Code, "7")`)
	if got := xquery.FormatDefinition(negate(contains)); got != `not(contains(/Item/Code, "7"))` {
		t.Errorf("negate(contains) = %s", got)
	}
}
