package ast

import (
	"fmt"
	"strings"

	"repro/internal/token"
)

// ExprString renders an expression as PS source text. The output reparses
// to an equivalent tree (module position information).
func ExprString(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		sb.WriteString("<nil>")
	case *Ident:
		sb.WriteString(x.Name)
	case *IntLit:
		fmt.Fprintf(sb, "%d", x.Value)
	case *RealLit:
		s := x.Lit
		if s == "" {
			s = fmt.Sprintf("%g", x.Value)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
		}
		sb.WriteString(s)
	case *BoolLit:
		if x.Value {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case *StringLit:
		sb.WriteByte('\'')
		sb.WriteString(strings.ReplaceAll(x.Value, "'", "''"))
		sb.WriteByte('\'')
	case *CharLit:
		sb.WriteByte('\'')
		sb.WriteString(strings.ReplaceAll(string(x.Value), "'", "''"))
		sb.WriteByte('\'')
	case *Binary:
		writeOperand(sb, x.X, x.Op, false)
		sb.WriteByte(' ')
		sb.WriteString(x.Op.String())
		sb.WriteByte(' ')
		writeOperand(sb, x.Y, x.Op, true)
	case *Unary:
		sb.WriteString(x.Op.String())
		if x.Op == token.NOT {
			sb.WriteByte(' ')
		}
		// Binary and conditional operands must be parenthesized: the
		// operator would otherwise capture only their first term, and a
		// trailing binary after "-if c then a else b" would be absorbed
		// into the else arm on reparse.
		switch Unparen(x.X).(type) {
		case *Binary, *IfExpr:
			sb.WriteByte('(')
			writeExpr(sb, Unparen(x.X))
			sb.WriteByte(')')
		default:
			writeExpr(sb, x.X)
		}
	case *Paren:
		sb.WriteByte('(')
		writeExpr(sb, x.X)
		sb.WriteByte(')')
	case *IfExpr:
		sb.WriteString("if ")
		writeExpr(sb, x.Cond)
		sb.WriteString(" then ")
		writeExpr(sb, x.Then)
		for _, arm := range x.Elifs {
			sb.WriteString(" elsif ")
			writeExpr(sb, arm.Cond)
			sb.WriteString(" then ")
			writeExpr(sb, arm.Then)
		}
		sb.WriteString(" else ")
		writeExpr(sb, x.Else)
	case *Index:
		writeExpr(sb, x.Base)
		sb.WriteByte('[')
		for i, s := range x.Subs {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeExpr(sb, s)
		}
		sb.WriteByte(']')
	case *Field:
		writeExpr(sb, x.Base)
		sb.WriteByte('.')
		sb.WriteString(x.Sel.Name)
	case *Call:
		sb.WriteString(x.Fun.Name)
		sb.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a)
		}
		sb.WriteByte(')')
	default:
		fmt.Fprintf(sb, "<%T>", e)
	}
}

// writeOperand emits a binary operand, parenthesizing when the child binds
// looser than the parent operator (or equally, on the right, to preserve
// left associativity).
func writeOperand(sb *strings.Builder, e Expr, parent token.Kind, right bool) {
	need := false
	if b, ok := Unparen(e).(*Binary); ok {
		pp, cp := parent.Precedence(), b.Op.Precedence()
		need = cp < pp || (cp == pp && right)
	}
	if _, ok := Unparen(e).(*IfExpr); ok {
		need = true
	}
	if need {
		sb.WriteByte('(')
		writeExpr(sb, Unparen(e))
		sb.WriteByte(')')
	} else {
		writeExpr(sb, Unparen(e))
	}
}

func writeType(sb *strings.Builder, t TypeExpr) {
	switch x := t.(type) {
	case nil:
		sb.WriteString("<nil>")
	case *TypeName:
		sb.WriteString(x.Name.Name)
	case *SubrangeType:
		writeExpr(sb, x.Lo)
		sb.WriteString(" .. ")
		writeExpr(sb, x.Hi)
	case *ArrayType:
		sb.WriteString("array [")
		for i, d := range x.Dims {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeType(sb, d)
		}
		sb.WriteString("] of ")
		writeType(sb, x.Elem)
	case *RecordType:
		sb.WriteString("record ")
		for i, f := range x.Fields {
			if i > 0 {
				sb.WriteString("; ")
			}
			for j, n := range f.Names {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(n.Name)
			}
			sb.WriteString(": ")
			writeType(sb, f.Type)
		}
		sb.WriteString(" end")
	case *EnumType:
		sb.WriteByte('(')
		for i, n := range x.Names {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(n.Name)
		}
		sb.WriteByte(')')
	default:
		fmt.Fprintf(sb, "<%T>", t)
	}
}

// EquationString renders an equation as PS source text (without the
// trailing semicolon).
func EquationString(e *Equation) string {
	var sb strings.Builder
	for i, t := range e.Targets {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Name.Name)
		if len(t.Subs) > 0 {
			sb.WriteByte('[')
			for j, s := range t.Subs {
				if j > 0 {
					sb.WriteByte(',')
				}
				writeExpr(&sb, s)
			}
			sb.WriteByte(']')
		}
	}
	sb.WriteString(" = ")
	writeExpr(&sb, e.RHS)
	return sb.String()
}

// ModuleString renders an entire module as formatted PS source.
func ModuleString(m *Module) string {
	var sb strings.Builder
	sb.WriteString(m.Name.Name)
	sb.WriteString(": module (")
	for i, p := range m.Params {
		if i > 0 {
			sb.WriteString("; ")
		}
		writeParam(&sb, p)
	}
	sb.WriteString("):\n    [")
	for i, p := range m.Results {
		if i > 0 {
			sb.WriteString("; ")
		}
		writeParam(&sb, p)
	}
	sb.WriteString("];\n")
	if len(m.Types) > 0 {
		sb.WriteString("type\n")
		for _, d := range m.Types {
			sb.WriteString("    ")
			for i, n := range d.Names {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(n.Name)
			}
			sb.WriteString(" = ")
			writeType(&sb, d.Type)
			sb.WriteString(";\n")
		}
	}
	if len(m.Vars) > 0 {
		sb.WriteString("var\n")
		for _, d := range m.Vars {
			sb.WriteString("    ")
			for i, n := range d.Names {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(n.Name)
			}
			sb.WriteString(": ")
			writeType(&sb, d.Type)
			sb.WriteString(";\n")
		}
	}
	sb.WriteString("define\n")
	for _, eq := range m.Eqs {
		sb.WriteString("    ")
		if eq.Label != "" {
			fmt.Fprintf(&sb, "(*%s*) ", eq.Label)
		}
		sb.WriteString(EquationString(eq))
		sb.WriteString(";\n")
	}
	sb.WriteString("end ")
	sb.WriteString(m.Name.Name)
	sb.WriteString(";\n")
	return sb.String()
}

func writeParam(sb *strings.Builder, p *Param) {
	for i, n := range p.Names {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(n.Name)
	}
	sb.WriteString(": ")
	writeType(sb, p.Type)
}
