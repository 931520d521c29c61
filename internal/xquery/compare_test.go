package xquery

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"partix/internal/xmltree"
)

// The general-comparison truth table: numeric when both sides parse as
// numbers, string comparison otherwise, NaN satisfying no numeric
// comparison. Every layer (interpreter, compiled executor, value index,
// planner) routes through these functions, so this table pins the shared
// semantics.
func TestCompareOperands(t *testing.T) {
	cases := []struct {
		name string
		op   BinaryOp
		l, r string
		want bool
	}{
		// Numeric comparisons: both sides parse.
		{"num eq", OpEq, "10", "10.0", true},
		{"num eq scientific", OpEq, "100", "1e2", true},
		{"num eq trimmed", OpEq, " 7 ", "7", true},
		{"num ne", OpNe, "1", "2", true},
		{"num ne equal", OpNe, "3", "3.00", false},
		{"num lt", OpLt, "9", "10", true},
		{"num lt false", OpLt, "10", "9", false},
		{"num le equal", OpLe, "5", "5", true},
		{"num gt", OpGt, "10", "9", true},
		{"num ge equal", OpGe, "5.5", "5.5", true},
		{"num negative", OpLt, "-2", "1", true},

		// String fallback: either side non-numeric.
		{"str eq", OpEq, "CD", "CD", true},
		{"str eq case", OpEq, "cd", "CD", false},
		{"str lt lexicographic", OpLt, "9", "10a", false}, // "9" > "1" as strings
		{"str date range", OpGt, "2005-03-01", "2004-01-01", true},
		{"str one numeric", OpEq, "10", "ten", false},
		{"str ne mixed", OpNe, "10", "ten", true},
		{"empty vs empty", OpEq, "", "", true},
		{"empty vs zero", OpEq, "", "0", false},

		// NaN: parses as a number, satisfies no numeric comparison.
		{"nan eq nan", OpEq, "NaN", "NaN", false},
		{"nan ne nan", OpNe, "NaN", "NaN", true},
		{"nan lt num", OpLt, "NaN", "5", false},
		{"nan gt num", OpGt, "NaN", "5", false},
		{"nan le num", OpLe, "NaN", "5", false},
		{"num ge nan", OpGe, "5", "NaN", false},
		{"nan vs string", OpEq, "NaN", "NaN ", false}, // "NaN " parses too → numeric NaN≠NaN
		{"nan vs word", OpLt, "NaN", "word", true},    // "word" is non-numeric → string cmp
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := CompareOperands(tc.op, PrepOperand(tc.l), PrepOperand(tc.r))
			if got != tc.want {
				t.Errorf("CompareOperands(%v, %q, %q) = %v, want %v", tc.op, tc.l, tc.r, got, tc.want)
			}
			// CompareValue prepares the left side itself; same answer.
			if got := CompareValue(tc.op, tc.l, PrepOperand(tc.r)); got != tc.want {
				t.Errorf("CompareValue(%v, %q, %q) = %v, want %v", tc.op, tc.l, tc.r, got, tc.want)
			}
			// CompareAtoms atomizes items; strings atomize to themselves.
			if got := CompareAtoms(tc.op, tc.l, tc.r); got != tc.want {
				t.Errorf("CompareAtoms(%v, %q, %q) = %v, want %v", tc.op, tc.l, tc.r, got, tc.want)
			}
		})
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in    string
		num   float64
		isNum bool
	}{
		{"10", 10, true},
		{" 10.5 ", 10.5, true},
		{"1e3", 1000, true},
		{"-0", 0, true},
		{"", 0, false},
		{"ten", 0, false},
		{"10x", 0, false},
		{"10 20", 0, false},
	}
	for _, tc := range cases {
		num, isNum := ParseNumber(tc.in)
		if isNum != tc.isNum || (isNum && num != tc.num) {
			t.Errorf("ParseNumber(%q) = (%v, %v), want (%v, %v)", tc.in, num, isNum, tc.num, tc.isNum)
		}
	}
	// NaN parses as numeric; its value is unequal to itself by IEEE rules.
	if num, isNum := ParseNumber("NaN"); !isNum || num == num {
		t.Errorf("ParseNumber(NaN) = (%v, %v), want a numeric NaN", num, isNum)
	}
}

// parseFloatOracle is the rule ParseNumber implements without its
// screen: ParseFloat of the space-trimmed string.
func parseFloatOracle(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// ParseNumber's screen turns away only what ParseFloat would refuse: on
// signs, the Inf and NaN spellings in every case, whitespace, hex and
// underscores, and on randomized strings over the characters a float can
// hold, it agrees with ParseFloat of the trimmed string.
func TestParseNumberAgreesWithParseFloat(t *testing.T) {
	cases := []string{
		"inf", "Inf", "INF", "+inf", "-Inf", "infinity", "-INFINITY", "+Infinity",
		"nan", "NaN", "NAN", "+nan", "-NaN", "infin", "infinite", "Infinite", "infinityx",
		"nano", "na", "in", "i", "n", "N", "I", "+", "-", "+-1", "-+1", "++1", ".", "-.", "+.5",
		".e1", "1e", "1e5", "1E-5", "0x1p-2", "0X1.8P1", "-0x1p0", "0x", "0x1", "1_000",
		"0x_1p0", "1__0", "_1", " inf ", "\tnan\n", "I000011", "i1", "N/A", "x", "Infx",
		"1.5", "00012", "1e400", "-1e400", "4.9e-324",
	}
	check := func(s string) {
		t.Helper()
		got, gotOK := ParseNumber(s)
		want, wantOK := parseFloatOracle(s)
		if gotOK != wantOK || (gotOK && got != want && !(math.IsNaN(got) && math.IsNaN(want))) {
			t.Fatalf("ParseNumber(%q) = (%v, %v), ParseFloat says (%v, %v)", s, got, gotOK, want, wantOK)
		}
	}
	for _, s := range cases {
		check(s)
	}
	const alphabet = "+-.0123456789eEpPxX_ infINFaAnNtyTY\t"
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		b := make([]byte, 1+r.Intn(9))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		check(string(b))
	}
	// Case variants of every spelling, signed and unsigned.
	for _, word := range []string{"inf", "infinity", "nan"} {
		for mask := 0; mask < 1<<len(word); mask++ {
			w := []byte(word)
			for j := range w {
				if mask&(1<<j) != 0 {
					w[j] -= 'a' - 'A'
				}
			}
			for _, sign := range []string{"", "+", "-"} {
				check(sign + string(w))
			}
		}
	}
}

// A string that opens with a letter but spells no Inf or NaN is turned
// away without calling ParseFloat, whose error allocates: Item codes are
// such strings, and the index, statistics and executors parse them on
// every query.
func TestParseNumberNonNumericAllocatesNothing(t *testing.T) {
	for _, s := range []string{"I000011", "Infinite", "nano"} {
		if n := testing.AllocsPerRun(100, func() { ParseNumber(s) }); n != 0 {
			t.Errorf("ParseNumber(%q) allocates %v times, want 0", s, n)
		}
	}
}

func TestGeneralCompareExistential(t *testing.T) {
	nodes := func(vals ...string) Seq {
		s := make(Seq, len(vals))
		for i, v := range vals {
			n := xmltree.NewElement("v")
			n.Append(xmltree.NewText(v))
			s[i] = n
		}
		return s
	}
	cases := []struct {
		name        string
		op          BinaryOp
		left, right Seq
		want        bool
	}{
		{"one witness suffices", OpEq, nodes("a", "b", "c"), Seq{"b"}, true},
		{"no witness", OpEq, nodes("a", "b"), Seq{"z"}, false},
		{"empty left", OpEq, nil, Seq{"a"}, false},
		{"empty right", OpEq, nodes("a"), nil, false},
		{"both empty", OpEq, nil, nil, false},
		{"ne finds any unequal pair", OpNe, nodes("a", "a"), Seq{"a", "b"}, true},
		{"numeric witness among strings", OpLt, nodes("zz", "5"), Seq{"10"}, true},
		{"float item atomizes", OpEq, Seq{float64(10)}, Seq{"10"}, true},
		{"bool item atomizes", OpEq, Seq{true}, Seq{"true"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := GeneralCompare(tc.op, tc.left, tc.right); got != tc.want {
				t.Errorf("GeneralCompare(%v) = %v, want %v", tc.op, got, tc.want)
			}
		})
	}
}

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		name string
		a, b Item
		want int
	}{
		{"both empty", nil, nil, 0},
		{"empty first", nil, "a", -1},
		{"empty first sym", "a", nil, 1},
		{"numeric order", "9", "10", -1},
		{"numeric equal", "10", "10.0", 0},
		{"string order", "10a", "9a", -1},
		{"string equal", "x", "x", 0},
		{"mixed falls to string", "10", "ten", -1},
		{"float items", float64(2), float64(10), -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CompareKeys(tc.a, tc.b); got != tc.want {
				t.Errorf("CompareKeys(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
			// Antisymmetry with the argument order flipped.
			if got := CompareKeys(tc.b, tc.a); got != -tc.want {
				t.Errorf("CompareKeys(%v, %v) = %d, want %d", tc.b, tc.a, got, -tc.want)
			}
		})
	}
}

func TestCmpToBinaryOp(t *testing.T) {
	cases := []struct {
		in  CmpOp
		out BinaryOp
		ok  bool
	}{
		{CmpEq, OpEq, true},
		{CmpLt, OpLt, true},
		{CmpLe, OpLe, true},
		{CmpGt, OpGt, true},
		{CmpGe, OpGe, true},
		{CmpExists, 0, false},
	}
	for _, tc := range cases {
		out, ok := CmpToBinaryOp(tc.in)
		if ok != tc.ok || (ok && out != tc.out) {
			t.Errorf("CmpToBinaryOp(%v) = (%v, %v), want (%v, %v)", tc.in, out, ok, tc.out, tc.ok)
		}
	}
}
