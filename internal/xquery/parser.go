package xquery

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse compiles an XQuery expression.
func Parse(query string) (Expr, error) {
	return (&parser{lex: newLexer(query)}).parseAll()
}

// parseAll parses an expression that must take up the whole input.
func (p *parser) parseAll() (Expr, error) {
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	t, err := p.lex.peek()
	if err != nil {
		return nil, err
	}
	if t.kind != tokEOF {
		return nil, fmt.Errorf("xquery: trailing input at offset %d (%s)", t.pos, t.kind)
	}
	return e, nil
}

// MustParse compiles query and panics on error; for workload tables and
// tests.
func MustParse(query string) Expr {
	e, err := Parse(query)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	lex *lexer
	// numText is non-nil while parsing a fragment definition
	// (ParseDefinition), which also reads rooted paths: it maps each
	// numeric literal to its source text.
	numText map[*NumberLit]string
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("xquery: offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// parseExpr: sequence of comma-separated single expressions.
func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	items := []Expr{first}
	for {
		t, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		if t.kind != tokComma {
			break
		}
		p.lex.next()
		e, err := p.parseSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	if len(items) == 1 {
		return first, nil
	}
	return &Sequence{Items: items}, nil
}

// parseSingle: FLWOR, if, quantified, or an operator expression.
func (p *parser) parseSingle() (Expr, error) {
	t, err := p.lex.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokName {
		switch t.text {
		case "for", "let":
			return p.parseFLWOR()
		case "if":
			// Only "if (" starts a conditional; a bare "if" stays a path.
			save := p.lex.pos
			p.lex.next()
			nt, err := p.lex.peek()
			if err != nil {
				return nil, err
			}
			if nt.kind == tokLParen {
				return p.parseIf()
			}
			p.lex.setPos(save)
		case "some", "every":
			save := p.lex.pos
			p.lex.next()
			nt, err := p.lex.peek()
			if err != nil {
				return nil, err
			}
			if nt.kind == tokVar {
				return p.parseQuantified(t.text == "every")
			}
			p.lex.setPos(save)
		}
	}
	return p.parseOr()
}

// parseIf parses (cond) then e1 else e2; the "if" is already consumed.
func (p *parser) parseIf() (Expr, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	t, err := p.lex.next()
	if err != nil {
		return nil, err
	}
	if t.kind != tokName || t.text != "then" {
		return nil, p.errf(t, "expected 'then'")
	}
	then, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	t, err = p.lex.next()
	if err != nil {
		return nil, err
	}
	if t.kind != tokName || t.text != "else" {
		return nil, p.errf(t, "expected 'else' (XQuery conditionals always have one)")
	}
	els, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: cond, Then: then, Else: els}, nil
}

// parseQuantified parses $v in expr (, $v in expr)* satisfies expr; the
// some/every keyword is already consumed.
func (p *parser) parseQuantified(every bool) (Expr, error) {
	q := &Quantified{Every: every}
	for {
		v, err := p.lex.next()
		if err != nil {
			return nil, err
		}
		if v.kind != tokVar {
			return nil, p.errf(v, "expected $variable in quantified expression")
		}
		t, err := p.lex.next()
		if err != nil {
			return nil, err
		}
		if t.kind != tokName || t.text != "in" {
			return nil, p.errf(t, "expected 'in'")
		}
		in, err := p.parseSingle()
		if err != nil {
			return nil, err
		}
		q.Clauses = append(q.Clauses, Clause{Var: v.text, In: in})
		nt, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		if nt.kind == tokComma {
			p.lex.next()
			continue
		}
		break
	}
	t, err := p.lex.next()
	if err != nil {
		return nil, err
	}
	if t.kind != tokName || t.text != "satisfies" {
		return nil, p.errf(t, "expected 'satisfies'")
	}
	sat, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfies = sat
	return q, nil
}

func (p *parser) parseFLWOR() (Expr, error) {
	f := &FLWOR{}
	for {
		t, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		if t.kind != tokName || (t.text != "for" && t.text != "let") {
			break
		}
		p.lex.next()
		isLet := t.text == "let"
		for {
			v, err := p.lex.next()
			if err != nil {
				return nil, err
			}
			if v.kind != tokVar {
				return nil, p.errf(v, "expected $variable after %s", t.text)
			}
			sep, err := p.lex.next()
			if err != nil {
				return nil, err
			}
			if isLet {
				if sep.kind != tokAssign {
					return nil, p.errf(sep, "expected := in let clause")
				}
			} else if sep.kind != tokName || sep.text != "in" {
				return nil, p.errf(sep, "expected 'in' in for clause")
			}
			in, err := p.parseSingle()
			if err != nil {
				return nil, err
			}
			f.Clauses = append(f.Clauses, Clause{Let: isLet, Var: v.text, In: in})
			nx, err := p.lex.peek()
			if err != nil {
				return nil, err
			}
			if nx.kind == tokComma {
				p.lex.next()
				continue
			}
			break
		}
	}
	if len(f.Clauses) == 0 {
		t, _ := p.lex.peek()
		return nil, p.errf(t, "FLWOR without clauses")
	}
	t, err := p.lex.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokName && t.text == "where" {
		p.lex.next()
		w, err := p.parseSingle()
		if err != nil {
			return nil, err
		}
		f.Where = w
	}
	t, err = p.lex.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokName && t.text == "order" {
		p.lex.next()
		by, err := p.lex.next()
		if err != nil {
			return nil, err
		}
		if by.kind != tokName || by.text != "by" {
			return nil, p.errf(by, "expected 'by' after 'order'")
		}
		for {
			key, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			spec := OrderSpec{Key: key}
			nt, err := p.lex.peek()
			if err != nil {
				return nil, err
			}
			if nt.kind == tokName && (nt.text == "ascending" || nt.text == "descending") {
				p.lex.next()
				spec.Descending = nt.text == "descending"
			}
			f.OrderBy = append(f.OrderBy, spec)
			nt, err = p.lex.peek()
			if err != nil {
				return nil, err
			}
			if nt.kind != tokComma {
				break
			}
			p.lex.next()
		}
	}
	t, err = p.lex.next()
	if err != nil {
		return nil, err
	}
	if t.kind != tokName || t.text != "return" {
		return nil, p.errf(t, "expected 'return', got %q", t.text)
	}
	ret, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	f.Return = ret
	return f, nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		if t.kind != tokName || t.text != "or" {
			return left, nil
		}
		p.lex.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, Left: left, Right: right}
	}
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		if t.kind != tokName || t.text != "and" {
			return left, nil
		}
		p.lex.next()
		right, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, Left: left, Right: right}
	}
}

var cmpOps = map[tokenKind]BinaryOp{
	tokEq: OpEq, tokNe: OpNe, tokLt: OpLt, tokLe: OpLe, tokGt: OpGt, tokGe: OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t, err := p.lex.peek()
	if err != nil {
		return nil, err
	}
	op, ok := cmpOps[t.kind]
	if !ok {
		return left, nil
	}
	p.lex.next()
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, Left: left, Right: right}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		var op BinaryOp
		switch t.kind {
		case tokPlus:
			op = OpAdd
		case tokMinus:
			op = OpSub
		default:
			return left, nil
		}
		p.lex.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		var op BinaryOp
		switch {
		case t.kind == tokStar:
			op = OpMul
		case t.kind == tokName && t.text == "div":
			op = OpDiv
		case t.kind == tokName && t.text == "mod":
			op = OpMod
		default:
			return left, nil
		}
		p.lex.next()
		right, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

// parsePath: a primary expression followed by location steps.
func (p *parser) parsePath() (Expr, error) {
	src, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	steps, err := p.parseSteps()
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return src, nil
	}
	return &PathExpr{Source: src, Steps: steps}, nil
}

func (p *parser) parseSteps() ([]PathStep, error) {
	var steps []PathStep
	for {
		t, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		if t.kind != tokSlash && t.kind != tokDSlash {
			return steps, nil
		}
		p.lex.next()
		st := PathStep{Descendant: t.kind == tokDSlash}
		nt, err := p.lex.next()
		if err != nil {
			return nil, err
		}
		switch nt.kind {
		case tokAt:
			name, err := p.lex.next()
			if err != nil {
				return nil, err
			}
			if name.kind != tokName && name.kind != tokStar {
				return nil, p.errf(name, "expected attribute name after @")
			}
			st.Attr = true
			st.Name = name.text
			if name.kind == tokStar {
				st.Name = "*"
			}
		case tokStar:
			st.Name = "*"
		case tokName:
			// text() step?
			if nt.text == "text" {
				after, err := p.lex.peek()
				if err != nil {
					return nil, err
				}
				if after.kind == tokLParen {
					p.lex.next()
					if err := p.expect(tokRParen); err != nil {
						return nil, err
					}
					st.Text = true
					break
				}
			}
			st.Name = nt.text
		default:
			return nil, p.errf(nt, "expected step name, got %s", nt.kind)
		}
		// Step predicates.
		for {
			t, err := p.lex.peek()
			if err != nil {
				return nil, err
			}
			if t.kind != tokLBracket {
				break
			}
			p.lex.next()
			pred, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			st.Preds = append(st.Preds, pred)
		}
		steps = append(steps, st)
	}
}

func (p *parser) expect(k tokenKind) error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	if t.kind != k {
		return p.errf(t, "expected %s, got %s", k, t.kind)
	}
	return nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t, err := p.lex.next()
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case tokVar:
		return &VarRef{Name: t.text}, nil
	case tokDot:
		return &ContextItem{}, nil
	case tokAt:
		name, err := p.lex.next()
		if err != nil {
			return nil, err
		}
		if name.kind != tokName && name.kind != tokStar {
			return nil, p.errf(name, "expected attribute name after @")
		}
		return &PathExpr{Steps: []PathStep{{Attr: true, Name: name.text}}}, nil
	case tokString:
		return &StringLit{Value: t.text}, nil
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.text)
		}
		lit := &NumberLit{Value: v}
		if p.numText != nil {
			p.numText[lit] = t.text
		}
		return lit, nil
	case tokMinus:
		inner, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpSub, Left: &NumberLit{Value: 0}, Right: inner}, nil
	case tokLParen:
		// () is the empty sequence.
		nt, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		if nt.kind == tokRParen {
			p.lex.next()
			return &Sequence{}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLt:
		return p.parseElementCtor(t)
	case tokSlash, tokDSlash:
		if p.numText == nil {
			return nil, p.errf(t, "rooted paths need an explicit doc() or collection() source")
		}
		// A definition's rooted path starts at the context node.
		p.lex.setPos(t.pos)
		steps, err := p.parseSteps()
		if err != nil {
			return nil, err
		}
		return &PathExpr{Steps: steps}, nil
	case tokName:
		nt, err := p.lex.peek()
		if err != nil {
			return nil, err
		}
		if nt.kind == tokLParen {
			return p.parseFuncCall(t.text)
		}
		// A bare name is a relative child step from the context item, as
		// used inside step predicates: Item[Section = "CD"].
		return &PathExpr{Steps: []PathStep{{Name: t.text}}}, nil
	default:
		return nil, p.errf(t, "unexpected %s", t.kind)
	}
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: name}
	t, err := p.lex.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokRParen {
		p.lex.next()
	} else {
		for {
			arg, err := p.parseSingle()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			t, err := p.lex.next()
			if err != nil {
				return nil, err
			}
			if t.kind == tokRParen {
				break
			}
			if t.kind != tokComma {
				return nil, p.errf(t, "expected ',' or ')' in %s(...)", name)
			}
		}
	}
	// collection() and doc() are source expressions with literal names.
	switch name {
	case "collection", "doc":
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("xquery: %s() takes exactly one string literal", name)
		}
		lit, ok := call.Args[0].(*StringLit)
		if !ok {
			return nil, fmt.Errorf("xquery: %s() takes a string literal argument", name)
		}
		if name == "collection" {
			return &CollectionCall{Name: lit.Value}, nil
		}
		return &DocCall{Name: lit.Value}, nil
	}
	return call, nil
}

// parseElementCtor parses <name attr="v">children</name>. The opening '<'
// token has been consumed. Content is raw text with {expr} embeds and
// nested constructors; the parser scans it directly.
func (p *parser) parseElementCtor(open token) (Expr, error) {
	name := p.lex.scanName()
	if name == "" {
		return nil, p.errf(open, "'<' here must start an element constructor (comparisons need a left operand)")
	}
	ctor := &ElementCtor{Name: name}
	// Attributes.
	for {
		if err := p.lex.skipSpaceAndComments(); err != nil {
			return nil, err
		}
		if p.lex.pos >= len(p.lex.in) {
			return nil, p.errf(open, "unterminated element constructor <%s", name)
		}
		c := p.lex.in[p.lex.pos]
		if c == '>' {
			p.lex.pos++
			break
		}
		if c == '/' && strings.HasPrefix(p.lex.in[p.lex.pos:], "/>") {
			p.lex.pos += 2
			return ctor, nil
		}
		aname := p.lex.scanName()
		if aname == "" {
			return nil, p.errf(open, "bad attribute in <%s>", name)
		}
		if p.lex.pos >= len(p.lex.in) || p.lex.in[p.lex.pos] != '=' {
			return nil, p.errf(open, "attribute %s needs '='", aname)
		}
		p.lex.pos++
		if p.lex.pos >= len(p.lex.in) {
			return nil, p.errf(open, "attribute %s needs a value", aname)
		}
		if q := p.lex.in[p.lex.pos]; q == '"' || q == '\'' {
			p.lex.pos++
			s := p.lex.pos
			// A quoted value may itself be an {expr} embed.
			for p.lex.pos < len(p.lex.in) && p.lex.in[p.lex.pos] != q {
				p.lex.pos++
			}
			if p.lex.pos >= len(p.lex.in) {
				return nil, p.errf(open, "unterminated attribute value for %s", aname)
			}
			raw := p.lex.in[s:p.lex.pos]
			p.lex.pos++
			if strings.HasPrefix(raw, "{") && strings.HasSuffix(raw, "}") {
				inner, err := Parse(raw[1 : len(raw)-1])
				if err != nil {
					return nil, err
				}
				ctor.Attrs = append(ctor.Attrs, AttrCtor{Name: aname, Value: inner})
			} else {
				ctor.Attrs = append(ctor.Attrs, AttrCtor{Name: aname, Value: &StringLit{Value: raw}})
			}
		} else {
			return nil, p.errf(open, "attribute %s needs a quoted value", aname)
		}
	}
	// Content until </name>.
	for {
		if p.lex.pos >= len(p.lex.in) {
			return nil, p.errf(open, "missing </%s>", name)
		}
		c := p.lex.in[p.lex.pos]
		switch {
		case c == '{':
			p.lex.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRBrace); err != nil {
				return nil, err
			}
			ctor.Children = append(ctor.Children, e)
		case strings.HasPrefix(p.lex.in[p.lex.pos:], "</"):
			p.lex.pos += 2
			end := p.lex.scanName()
			if end != name {
				return nil, p.errf(open, "mismatched </%s> for <%s>", end, name)
			}
			if err := p.lex.skipSpaceAndComments(); err != nil {
				return nil, err
			}
			if p.lex.pos >= len(p.lex.in) || p.lex.in[p.lex.pos] != '>' {
				return nil, p.errf(open, "malformed </%s>", name)
			}
			p.lex.pos++
			return ctor, nil
		case c == '<':
			p.lex.pos++
			child, err := p.parseElementCtor(open)
			if err != nil {
				return nil, err
			}
			ctor.Children = append(ctor.Children, child)
		default:
			s := p.lex.pos
			for p.lex.pos < len(p.lex.in) && p.lex.in[p.lex.pos] != '<' && p.lex.in[p.lex.pos] != '{' {
				p.lex.pos++
			}
			text := p.lex.in[s:p.lex.pos]
			if strings.TrimSpace(text) != "" {
				ctor.Children = append(ctor.Children, &TextLit{Value: text})
			}
		}
	}
}
