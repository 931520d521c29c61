package xquery

import "strings"

// NormalizeQueryText produces a canonical form of a query's text:
// whitespace runs and comments collapse to single separating spaces, and
// string literals are re-quoted canonically (double quotes, unless the
// literal itself contains one — the language has no escapes, so such a
// literal can only be written single-quoted). Two queries that differ only
// in layout, comments, or quoting style normalize to the same string,
// which is what lets a plan cache and a slow-query log deduplicate them.
//
// The one construct a token-level pass cannot handle is the element
// constructor: its content is raw text (lexed by the parser, not the
// lexer), where whitespace is semantic and "(:" is literal content. When a
// '<' immediately followed by a name-start character appears outside a
// string literal — the only way a constructor can begin — normalization
// falls back to the input with the lexer's whitespace trimmed off its
// ends, as it does on any lexing error; the trimmed text fails the same
// way, so normalizing is idempotent. The fallback is conservative in the
// safe direction: equivalent spellings may normalize differently (a cache
// miss), but two queries with the same normal form always tokenize
// identically.
func NormalizeQueryText(q string) string {
	l := newLexer(q)
	var sb strings.Builder
	sb.Grow(len(q))
	first := true
	for {
		if err := l.skipSpaceAndComments(); err != nil {
			return strings.Trim(q, lexSpace)
		}
		if l.pos+1 < len(l.in) && l.in[l.pos] == '<' && isNameStart(l.in[l.pos+1]) {
			return strings.Trim(q, lexSpace) // potential element constructor
		}
		t, err := l.next()
		if err != nil {
			return strings.Trim(q, lexSpace)
		}
		if t.kind == tokEOF {
			break
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		writeToken(&sb, t)
	}
	return sb.String()
}

// lexSpace is the whitespace the lexer skips between tokens.
const lexSpace = " \t\n\r"

func writeToken(sb *strings.Builder, t token) {
	switch t.kind {
	case tokVar:
		sb.WriteByte('$')
		sb.WriteString(t.text)
	case tokString:
		writeQuoted(sb, t.text)
	default:
		sb.WriteString(t.text)
	}
}
