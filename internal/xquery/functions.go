package xquery

import (
	"fmt"
	"math"
	"strings"
)

// sliceString implements XPath substring semantics: 1-based start, byte
// positions, out-of-range clamped.
func sliceString(s string, start, length int) string {
	if length <= 0 {
		return ""
	}
	from := start - 1
	to := from + length
	if from < 0 {
		from = 0
	}
	if from >= len(s) {
		return ""
	}
	if to > len(s) {
		to = len(s)
	}
	if to <= from {
		return ""
	}
	return s[from:to]
}

func (c *context) evalFunc(f *FuncCall) (Seq, error) {
	switch f.Name {
	case "count":
		if len(f.Args) == 1 {
			if n, ok := c.probeCount(f.Args[0]); ok {
				return Seq{float64(n)}, nil
			}
		}
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		return Seq{float64(len(args[0]))}, nil
	case "sum", "avg", "min", "max":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		return c.aggregate(f.Name, args[0])
	case "contains", "starts-with", "ends-with":
		args, err := c.evalArgs(f, 2)
		if err != nil {
			return nil, err
		}
		// contains over a node sequence is existential: true if any
		// selected node's value matches (the form the paper's text-search
		// queries use: contains(//Description, "good")).
		needle := seqString(args[1])
		for _, it := range args[0] {
			hay := ItemString(it)
			var ok bool
			switch f.Name {
			case "contains":
				ok = strings.Contains(hay, needle)
			case "starts-with":
				ok = strings.HasPrefix(hay, needle)
			default:
				ok = strings.HasSuffix(hay, needle)
			}
			if ok {
				return Seq{true}, nil
			}
		}
		return Seq{false}, nil
	case "not":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		b, err := EffectiveBool(args[0])
		if err != nil {
			return nil, err
		}
		return Seq{!b}, nil
	case "empty":
		if len(f.Args) == 1 {
			if ex, ok := c.probeExists(f.Args[0]); ok {
				return Seq{!ex}, nil
			}
		}
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		return Seq{len(args[0]) == 0}, nil
	case "exists":
		if len(f.Args) == 1 {
			if ex, ok := c.probeExists(f.Args[0]); ok {
				return Seq{ex}, nil
			}
		}
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		return Seq{len(args[0]) > 0}, nil
	case "string":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return Seq{""}, nil
		}
		return Seq{ItemString(args[0][0])}, nil
	case "number":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return nil, fmt.Errorf("xquery: number() of empty sequence")
		}
		n, err := itemNumber(args[0][0])
		if err != nil {
			return nil, err
		}
		return Seq{n}, nil
	case "concat":
		if len(f.Args) < 2 {
			return nil, fmt.Errorf("xquery: concat() needs at least 2 arguments")
		}
		var sb strings.Builder
		for _, a := range f.Args {
			v, err := c.eval(a)
			if err != nil {
				return nil, err
			}
			sb.WriteString(seqString(v))
		}
		return Seq{sb.String()}, nil
	case "string-length":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		return Seq{float64(len(seqString(args[0])))}, nil
	case "distinct-values":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out Seq
		for _, it := range args[0] {
			s := ItemString(it)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out, nil
	case "name":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return Seq{""}, nil
		}
		if n, ok := NodeOf(args[0][0]); ok {
			return Seq{n.Name}, nil
		}
		return Seq{""}, nil
	case "substring":
		if len(f.Args) != 2 && len(f.Args) != 3 {
			return nil, fmt.Errorf("xquery: substring() takes 2 or 3 arguments")
		}
		sv, err := c.eval(f.Args[0])
		if err != nil {
			return nil, err
		}
		s := seqString(sv)
		startv, err := c.evalNumber(f.Args[1])
		if err != nil || startv == nil {
			return nil, fmt.Errorf("xquery: substring() start must be a number")
		}
		// XPath semantics: 1-based start, rounded.
		start := int(math.Round(*startv))
		length := len(s) - (start - 1)
		if len(f.Args) == 3 {
			lv, err := c.evalNumber(f.Args[2])
			if err != nil || lv == nil {
				return nil, fmt.Errorf("xquery: substring() length must be a number")
			}
			length = int(math.Round(*lv))
		}
		return Seq{sliceString(s, start, length)}, nil
	case "upper-case", "lower-case", "normalize-space":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		s := seqString(args[0])
		switch f.Name {
		case "upper-case":
			s = strings.ToUpper(s)
		case "lower-case":
			s = strings.ToLower(s)
		default:
			s = strings.Join(strings.Fields(s), " ")
		}
		return Seq{s}, nil
	case "round", "floor", "ceiling", "abs":
		args, err := c.evalArgs(f, 1)
		if err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return nil, nil
		}
		v, err := itemNumber(args[0][0])
		if err != nil {
			return nil, err
		}
		switch f.Name {
		case "round":
			v = math.Round(v)
		case "floor":
			v = math.Floor(v)
		case "ceiling":
			v = math.Ceil(v)
		default:
			v = math.Abs(v)
		}
		return Seq{v}, nil
	case "true":
		if len(f.Args) != 0 {
			return nil, fmt.Errorf("xquery: true() takes no arguments")
		}
		return Seq{true}, nil
	case "false":
		if len(f.Args) != 0 {
			return nil, fmt.Errorf("xquery: false() takes no arguments")
		}
		return Seq{false}, nil
	default:
		return nil, fmt.Errorf("xquery: unknown function %s()", f.Name)
	}
}

func (c *context) evalArgs(f *FuncCall, want int) ([]Seq, error) {
	if len(f.Args) != want {
		return nil, fmt.Errorf("xquery: %s() takes %d argument(s), got %d", f.Name, want, len(f.Args))
	}
	out := make([]Seq, len(f.Args))
	for i, a := range f.Args {
		v, err := c.eval(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (c *context) aggregate(name string, s Seq) (Seq, error) {
	if len(s) == 0 {
		if name == "sum" {
			return Seq{0.0}, nil
		}
		return nil, nil // avg/min/max of empty is empty
	}
	var acc float64
	for i, it := range s {
		v, err := itemNumber(it)
		if err != nil {
			return nil, fmt.Errorf("%s(): %w", name, err)
		}
		switch {
		case i == 0:
			acc = v
		case name == "sum" || name == "avg":
			acc += v
		case name == "min" && v < acc:
			acc = v
		case name == "max" && v > acc:
			acc = v
		}
	}
	if name == "avg" {
		acc /= float64(len(s))
	}
	return Seq{acc}, nil
}
