package xquery

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders an AST back to query text the parser accepts. PartiX
// rewrites queries as ASTs and ships them to remote nodes as text.
func Format(e Expr) string {
	var sb strings.Builder
	formatExpr(&sb, e, false)
	return sb.String()
}

// writeQuoted writes s as a string literal the lexer reads back verbatim:
// in double quotes, or in single quotes when s holds a double quote. The
// lexer has no escapes, so no literal it produced holds both.
func writeQuoted(sb *strings.Builder, s string) {
	q := byte('"')
	if strings.IndexByte(s, '"') >= 0 {
		q = '\''
	}
	sb.WriteByte(q)
	sb.WriteString(s)
	sb.WriteByte(q)
}

func formatExpr(sb *strings.Builder, e Expr, parens bool) {
	switch x := e.(type) {
	case nil:
	case *StringLit:
		writeQuoted(sb, x.Value)
	case *TextLit:
		sb.WriteByte('"')
		sb.WriteString(x.Value)
		sb.WriteByte('"')
	case *NumberLit:
		sb.WriteString(strconv.FormatFloat(x.Value, 'f', -1, 64)) // the lexer reads no exponent
	case *VarRef:
		sb.WriteByte('$')
		sb.WriteString(x.Name)
	case *ContextItem:
		sb.WriteByte('.')
	case *CollectionCall:
		sb.WriteString("collection(")
		writeQuoted(sb, x.Name)
		sb.WriteByte(')')
	case *DocCall:
		sb.WriteString("doc(")
		writeQuoted(sb, x.Name)
		sb.WriteByte(')')
	case *FLWOR:
		if parens {
			sb.WriteByte('(')
		}
		for _, cl := range x.Clauses {
			if cl.Let {
				sb.WriteString("let $")
				sb.WriteString(cl.Var)
				sb.WriteString(" := ")
			} else {
				sb.WriteString("for $")
				sb.WriteString(cl.Var)
				sb.WriteString(" in ")
			}
			formatExpr(sb, cl.In, true)
			sb.WriteByte(' ')
		}
		if x.Where != nil {
			sb.WriteString("where ")
			formatExpr(sb, x.Where, true)
			sb.WriteByte(' ')
		}
		if len(x.OrderBy) > 0 {
			sb.WriteString("order by ")
			for i, o := range x.OrderBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				formatExpr(sb, o.Key, true)
				if o.Descending {
					sb.WriteString(" descending")
				}
			}
			sb.WriteByte(' ')
		}
		sb.WriteString("return ")
		formatExpr(sb, x.Return, true)
		if parens {
			sb.WriteByte(')')
		}
	case *PathExpr:
		if x.Source != nil {
			formatExpr(sb, x.Source, true)
		}
		for i, st := range x.Steps {
			if st.Descendant {
				sb.WriteString("//")
			} else if x.Source != nil || i > 0 {
				sb.WriteByte('/')
			}
			switch {
			case st.Text:
				sb.WriteString("text()")
			case st.Attr:
				sb.WriteByte('@')
				sb.WriteString(st.Name)
			default:
				sb.WriteString(st.Name)
			}
			for _, p := range st.Preds {
				sb.WriteByte('[')
				formatExpr(sb, p, false)
				sb.WriteByte(']')
			}
		}
	case *Binary:
		if parens {
			sb.WriteByte('(')
		}
		formatExpr(sb, x.Left, true)
		sb.WriteByte(' ')
		sb.WriteString(x.Op.String())
		sb.WriteByte(' ')
		formatExpr(sb, x.Right, true)
		if parens {
			sb.WriteByte(')')
		}
	case *FuncCall:
		sb.WriteString(x.Name)
		sb.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			formatExpr(sb, a, false)
		}
		sb.WriteByte(')')
	case *Sequence:
		sb.WriteByte('(')
		for i, it := range x.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			formatExpr(sb, it, false)
		}
		sb.WriteByte(')')
	case *ElementCtor:
		sb.WriteByte('<')
		sb.WriteString(x.Name)
		for _, a := range x.Attrs {
			sb.WriteByte(' ')
			sb.WriteString(a.Name)
			sb.WriteString(`="`)
			if lit, ok := a.Value.(*StringLit); ok {
				sb.WriteString(lit.Value)
			} else {
				sb.WriteByte('{')
				formatExpr(sb, a.Value, false)
				sb.WriteByte('}')
			}
			sb.WriteByte('"')
		}
		if len(x.Children) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteByte('>')
		for _, ch := range x.Children {
			if t, ok := ch.(*TextLit); ok {
				sb.WriteString(t.Value)
				continue
			}
			if c, ok := ch.(*ElementCtor); ok {
				formatExpr(sb, c, false)
				continue
			}
			sb.WriteByte('{')
			formatExpr(sb, ch, false)
			sb.WriteByte('}')
		}
		sb.WriteString("</")
		sb.WriteString(x.Name)
		sb.WriteByte('>')
	case *IfExpr:
		if parens {
			sb.WriteByte('(')
		}
		sb.WriteString("if (")
		formatExpr(sb, x.Cond, false)
		sb.WriteString(") then ")
		formatExpr(sb, x.Then, true)
		sb.WriteString(" else ")
		formatExpr(sb, x.Else, true)
		if parens {
			sb.WriteByte(')')
		}
	case *Quantified:
		if parens {
			sb.WriteByte('(')
		}
		if x.Every {
			sb.WriteString("every ")
		} else {
			sb.WriteString("some ")
		}
		for i, c := range x.Clauses {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('$')
			sb.WriteString(c.Var)
			sb.WriteString(" in ")
			formatExpr(sb, c.In, true)
		}
		sb.WriteString(" satisfies ")
		formatExpr(sb, x.Satisfies, true)
		if parens {
			sb.WriteByte(')')
		}
	default:
		fmt.Fprintf(sb, "(:unknown %T:)", e)
	}
}
