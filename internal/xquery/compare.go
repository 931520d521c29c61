package xquery

import (
	"strconv"
	"strings"
)

// This file is the single home of the evaluator's general-comparison
// semantics: numeric comparison when both atoms parse as numbers, raw
// string comparison otherwise, with NaN literals satisfying no numeric
// comparison. The tree-walking interpreter, the compiled executor
// (internal/xquery/exec), the engine's typed value index and the
// coordinator's statistics planner all answer value comparisons — keeping
// them on one implementation is what stops the copies from drifting.

// ParseNumber is the evaluator's numeric interpretation of an atomized
// value: ParseFloat of the space-trimmed string. Every layer that decides
// "is this value numeric?" (index pruning, statistics exclusion, the
// executors) must use exactly this rule.
func ParseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	// ParseFloat allocates its error; screen out values that cannot be a
	// float (words, paths, codes such as "I000011") so the comparison
	// loops, the index and the statistics stay allocation-free on
	// non-numeric values. Every string ParseFloat accepts is, after an
	// optional sign, a digit or a dot first, or exactly "inf", "infinity"
	// or (unsigned) "nan" in any case.
	rest := s
	if c := rest[0]; c == '+' || c == '-' {
		rest = rest[1:]
	}
	if rest == "" {
		return 0, false
	}
	if c := rest[0]; (c < '0' || c > '9') && c != '.' &&
		!strings.EqualFold(rest, "inf") && !strings.EqualFold(rest, "infinity") &&
		(len(rest) < len(s) || !strings.EqualFold(rest, "nan")) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// Operand is a comparison operand with its numeric interpretation
// resolved once. The compiled executor prepares the literal side of a
// predicate once per plan and each gathered node value once per batch,
// instead of re-parsing both sides per (value, literal) pair the way the
// interpreter's atom comparison does.
type Operand struct {
	Raw   string
	Num   float64
	IsNum bool
}

// PrepOperand resolves a string's numeric interpretation.
func PrepOperand(s string) Operand {
	o := Operand{Raw: s}
	o.Num, o.IsNum = ParseNumber(s)
	return o
}

// CompareOperands applies a general-comparison operator to two prepared
// operands: numeric when both parse, string otherwise.
func CompareOperands(op BinaryOp, l, r Operand) bool {
	if l.IsNum && r.IsNum {
		switch op {
		case OpEq:
			return l.Num == r.Num
		case OpNe:
			return l.Num != r.Num
		case OpLt:
			return l.Num < r.Num
		case OpLe:
			return l.Num <= r.Num
		case OpGt:
			return l.Num > r.Num
		default:
			return l.Num >= r.Num
		}
	}
	switch op {
	case OpEq:
		return l.Raw == r.Raw
	case OpNe:
		return l.Raw != r.Raw
	case OpLt:
		return l.Raw < r.Raw
	case OpLe:
		return l.Raw <= r.Raw
	case OpGt:
		return l.Raw > r.Raw
	default:
		return l.Raw >= r.Raw
	}
}

// CompareAtoms compares two atomized items under the general-comparison
// semantics (the interpreter's per-pair form).
func CompareAtoms(op BinaryOp, l, r Item) bool {
	return CompareOperands(op, PrepOperand(ItemString(l)), PrepOperand(ItemString(r)))
}

// GeneralCompare implements XQuery general comparison: existential over
// both sequences.
func GeneralCompare(op BinaryOp, left, right Seq) bool {
	for _, l := range left {
		for _, r := range right {
			if CompareAtoms(op, l, r) {
				return true
			}
		}
	}
	return false
}

// CompareKeys orders two order-by sort keys: empty (nil) first, numeric
// when both parse, lexicographic otherwise. Returns -1, 0 or 1.
func CompareKeys(a, b Item) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	return CompareKeyOperands(PrepOperand(ItemString(a)), PrepOperand(ItemString(b)))
}

// CompareKeyOperands is CompareKeys over pre-atomized operands (both
// present); the compiled order-by operator prepares each key once instead
// of per pairwise comparison.
func CompareKeyOperands(a, b Operand) int {
	if a.IsNum && b.IsNum {
		switch {
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.Raw, b.Raw)
}

// CompareValue compares a raw node value against a prepared literal —
// the form the engine's value index and the vectorized predicate filter
// use, where one side is fixed for many values.
func CompareValue(op BinaryOp, value string, lit Operand) bool {
	return CompareOperands(op, PrepOperand(value), lit)
}

// CmpToBinaryOp maps a constraint comparison operator to its
// general-comparison form; CmpExists has none (ok=false).
func CmpToBinaryOp(op CmpOp) (BinaryOp, bool) {
	switch op {
	case CmpEq:
		return OpEq, true
	case CmpLt:
		return OpLt, true
	case CmpLe:
		return OpLe, true
	case CmpGt:
		return OpGt, true
	case CmpGe:
		return OpGe, true
	}
	return 0, false
}
