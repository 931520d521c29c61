package xquery

import (
	"fmt"
	"math"
	"strings"
)

// A fragment definition is written in the simple-predicate language of
// the PartiX paper (Section 3.1), which is a subset of this package's
// XQuery:
//
//	P := /e1/…/{ek | @ak}     e: an element name or *; // any descendants; e[i] the i-th e
//	p := P θ v | count(P) θ n | contains(P, "s") | empty(P) | P | true()
//	   | not(p) | p and p | p or p | (p)
//
// with θ ∈ {=, !=, <, <=, >, >=}. The only grammar XQuery lacks is the
// leading / or //: in a definition it starts a path at the context node,
// and a path with no leading slash means the same. The context node is
// the document node (DocNode) for a selection σ and a projection π, and a
// document node wrapping the repeating child for the σ of a hybrid
// fragment. Every rooted path parses to a PathExpr with a nil Source.
//
// A bare numeric literal v compares as its source text does, through
// PrepOperand: it parses to the StringLit of that text, so /a = 05
// compares a non-numeric value against "05", not "5".

// ParseDefinition parses a fragment definition: a selection predicate μ,
// or a projection or prune path (a *PathExpr). It rejects anything
// outside the simple-predicate language.
func ParseDefinition(text string) (Expr, error) {
	p := &parser{lex: newLexer(text), numText: map[*NumberLit]string{}}
	e, err := p.parseAll()
	if err != nil {
		return nil, err
	}
	return p.lowerPredicate(e)
}

// MustParseDefinition is ParseDefinition that panics on error; for
// fragment tables and tests.
func MustParseDefinition(text string) Expr {
	e, err := ParseDefinition(text)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) lowerPredicate(e Expr) (Expr, error) {
	switch x := e.(type) {
	case *PathExpr:
		return lowerPath(x)
	case *Binary:
		switch x.Op {
		case OpAnd, OpOr:
			l, err := p.lowerPredicate(x.Left)
			if err != nil {
				return nil, err
			}
			r, err := p.lowerPredicate(x.Right)
			if err != nil {
				return nil, err
			}
			return &Binary{Op: x.Op, Left: l, Right: r}, nil
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			if count, ok := x.Left.(*FuncCall); ok && count.Name == "count" {
				arg, err := lowerArgs(count, 1)
				if err != nil {
					return nil, err
				}
				n, ok := x.Right.(*NumberLit)
				if !ok || n.Value != math.Trunc(n.Value) {
					return nil, fmt.Errorf("xquery: count() compares with an integer in definition %s", FormatDefinition(e))
				}
				return &Binary{Op: x.Op, Left: &FuncCall{Name: "count", Args: arg}, Right: n}, nil
			}
			path, ok := x.Left.(*PathExpr)
			if !ok {
				break
			}
			l, err := lowerPath(path)
			if err != nil {
				return nil, err
			}
			r, ok := p.literal(x.Right)
			if !ok {
				return nil, fmt.Errorf("xquery: a path compares with a literal in definition %s", FormatDefinition(e))
			}
			return &Binary{Op: x.Op, Left: l, Right: r}, nil
		}
	case *FuncCall:
		switch x.Name {
		case "true":
			if len(x.Args) == 0 {
				return x, nil
			}
		case "not":
			if len(x.Args) == 1 {
				inner, err := p.lowerPredicate(x.Args[0])
				if err != nil {
					return nil, err
				}
				return &FuncCall{Name: "not", Args: []Expr{inner}}, nil
			}
		case "empty":
			args, err := lowerArgs(x, 1)
			if err != nil {
				return nil, err
			}
			return &FuncCall{Name: x.Name, Args: args}, nil
		case "contains":
			args, err := lowerArgs(x, 2)
			if err != nil {
				return nil, err
			}
			if _, ok := x.Args[1].(*StringLit); !ok {
				return nil, fmt.Errorf("xquery: contains() searches for a string literal in definition %s", FormatDefinition(e))
			}
			return &FuncCall{Name: x.Name, Args: append(args, x.Args[1])}, nil
		}
	}
	return nil, fmt.Errorf("xquery: %s is not a simple predicate", FormatDefinition(e))
}

// lowerArgs checks that f has want arguments, the first a path, and
// returns that path lowered.
func lowerArgs(f *FuncCall, want int) ([]Expr, error) {
	if len(f.Args) != want {
		return nil, fmt.Errorf("xquery: %s() takes %d argument(s) in a definition", f.Name, want)
	}
	path, ok := f.Args[0].(*PathExpr)
	if !ok {
		return nil, fmt.Errorf("xquery: %s() takes a path in a definition", f.Name)
	}
	l, err := lowerPath(path)
	if err != nil {
		return nil, err
	}
	return []Expr{l}, nil
}

// literal is a comparison's literal side: a string, or a numeric literal
// (with its unary minus) as the StringLit of its source text.
func (p *parser) literal(e Expr) (*StringLit, bool) {
	switch x := e.(type) {
	case *StringLit:
		return x, true
	case *NumberLit:
		text, ok := p.numText[x]
		return &StringLit{Value: text}, ok
	case *Binary:
		// -n parses as 0 - n, its 0 synthesized (absent from numText).
		zero, _ := x.Left.(*NumberLit)
		n, isNum := x.Right.(*NumberLit)
		if _, written := p.numText[zero]; zero != nil && !written && isNum && x.Op == OpSub {
			return &StringLit{Value: "-" + p.numText[n]}, true
		}
	}
	return nil, false
}

// lowerPath checks a definition path and flattens the relative form
// a/b, which parses as a path over the path a, into one step list.
func lowerPath(x *PathExpr) (*PathExpr, error) {
	var steps []PathStep
	if x.Source != nil {
		src, ok := x.Source.(*PathExpr)
		if !ok {
			return nil, fmt.Errorf("xquery: a definition path starts at the context node, not at %s", Format(x.Source))
		}
		head, err := lowerPath(src)
		if err != nil {
			return nil, err
		}
		steps = append(steps, head.Steps...)
	}
	steps = append(steps, x.Steps...)
	for i, st := range steps {
		if st.Text {
			return nil, fmt.Errorf("xquery: text() step in definition path %s", pathString(steps))
		}
		if st.Attr && i != len(steps)-1 {
			return nil, fmt.Errorf("xquery: attribute step must be last in definition path %s", pathString(steps))
		}
		if len(st.Preds) == 0 {
			continue
		}
		if n := Position(st); n == 0 || len(st.Preds) > 1 || st.Attr {
			return nil, fmt.Errorf("xquery: a definition path step takes one position [i], i ≥ 1, on an element (%s)", pathString(steps))
		}
	}
	return &PathExpr{Steps: steps}, nil
}

// Position is the i of a step's positional filter e[i] in a definition
// path, or 0 when the step has none (or a filter of another form).
func Position(st PathStep) int {
	if len(st.Preds) != 1 {
		return 0
	}
	n, ok := st.Preds[0].(*NumberLit)
	if !ok || n.Value < 1 || n.Value != math.Trunc(n.Value) || n.Value > math.MaxInt32 {
		return 0
	}
	return int(n.Value)
}

// FormatDefinition renders a definition in the notation ParseDefinition
// reads: a path with its leading / or //, or rather than and in
// parentheses, and each chain of one operator flat.
func FormatDefinition(e Expr) string {
	var sb strings.Builder
	writeDefinition(&sb, e)
	return sb.String()
}

func writeDefinition(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *PathExpr:
		if x.Source == nil && len(x.Steps) > 0 && !x.Steps[0].Descendant {
			sb.WriteByte('/') // Format leaves a context path relative
		}
		formatExpr(sb, x, false)
	case *Binary:
		if x.Op == OpOr {
			sb.WriteByte('(')
		}
		writeOperand(sb, x.Left, x.Op)
		sb.WriteByte(' ')
		sb.WriteString(x.Op.String())
		sb.WriteByte(' ')
		writeOperand(sb, x.Right, x.Op)
		if x.Op == OpOr {
			sb.WriteByte(')')
		}
	case *FuncCall:
		sb.WriteString(x.Name)
		sb.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeDefinition(sb, a)
		}
		sb.WriteByte(')')
	default:
		formatExpr(sb, e, true)
	}
}

// writeOperand writes an operand of op, an and or or chain inline.
func writeOperand(sb *strings.Builder, e Expr, op BinaryOp) {
	if b, ok := e.(*Binary); ok && b.Op == op && (op == OpAnd || op == OpOr) {
		writeOperand(sb, b.Left, op)
		sb.WriteByte(' ')
		sb.WriteString(op.String())
		sb.WriteByte(' ')
		writeOperand(sb, b.Right, op)
		return
	}
	writeDefinition(sb, e)
}
