package ir_test

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// The reference printer: the fmt-based AIR printer the append-based one
// replaced, kept here as the byte-identity oracle. It is self-contained
// — its own type, operand, mark and name renderings, none routed
// through the package's String methods — so a change to the production
// printer cannot silently change the reference with it.

var (
	refOrdNames = map[ir.MemOrder]string{
		ir.NotAtomic: "plain", ir.Relaxed: "relaxed", ir.Acquire: "acquire",
		ir.Release: "release", ir.AcqRel: "acq_rel", ir.SeqCst: "seq_cst",
	}
	refBinNames = map[ir.BinKind]string{
		ir.Add: "add", ir.Sub: "sub", ir.Mul: "mul", ir.Div: "sdiv", ir.Rem: "srem",
		ir.And: "and", ir.Or: "or", ir.Xor: "xor", ir.Shl: "shl", ir.Shr: "ashr",
	}
	refPredNames = map[ir.Pred]string{ir.EQ: "eq", ir.NE: "ne", ir.LT: "slt", ir.LE: "sle", ir.GT: "sgt", ir.GE: "sge"}
	refRMWNames  = map[ir.RMWKind]string{
		ir.RMWAdd: "add", ir.RMWSub: "sub", ir.RMWAnd: "and", ir.RMWOr: "or",
		ir.RMWXor: "xor", ir.RMWXchg: "xchg",
	}
)

func refMark(m ir.Mark) string {
	var parts []string
	add := func(bit ir.Mark, s string) {
		if m&bit != 0 {
			parts = append(parts, s)
		}
	}
	add(ir.MarkSpinControl, "spin")
	add(ir.MarkOptControl, "opt")
	add(ir.MarkSticky, "sticky")
	add(ir.MarkFromVolatile, "volatile")
	add(ir.MarkFromAtomic, "atomic-upgrade")
	add(ir.MarkFromAsm, "asm")
	add(ir.MarkInsertedFence, "inserted")
	add(ir.MarkNaive, "naive")
	add(ir.MarkWeakened, "weakened")
	return strings.Join(parts, ",")
}

func refType(t ir.Type) string {
	switch x := t.(type) {
	case *ir.IntType:
		return fmt.Sprintf("i%d", x.Bits)
	case *ir.PtrType:
		return "ptr " + refType(x.Elem)
	case *ir.StructType:
		return "%" + x.TypeName
	case *ir.ArrayType:
		return fmt.Sprintf("[%d x %s]", x.Len, refType(x.Elem))
	case *ir.VoidType:
		return "void"
	}
	panic(fmt.Sprintf("refType: unknown type %T", t))
}

func refOperand(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Instr:
		return fmt.Sprintf("%%t%d", x.ID)
	case *ir.ConstInt:
		return fmt.Sprintf("%d", x.V)
	case *ir.Global:
		return "@" + x.GName
	case *ir.Param:
		return "%" + x.PName
	case *ir.FuncRef:
		return "@" + x.Fn.Name
	}
	panic(fmt.Sprintf("refOperand: unknown value %T", v))
}

func refLayout(t *ir.StructType) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%s = type {", t.TypeName)
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", refType(f.Type), f.Name)
		if f.Volatile {
			b.WriteString(" volatile")
		}
		if f.Atomic {
			b.WriteString(" atomic")
		}
	}
	b.WriteString("}")
	return b.String()
}

func refHeaderString(m *ir.Module) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; module %s\n", m.Name)
	names := make([]string, 0, len(m.Structs))
	for n := range m.Structs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(refLayout(m.Structs[n]))
		b.WriteString("\n")
	}
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "@%s = global %s", g.GName, refType(g.Elem))
		if g.Volatile {
			b.WriteString(" volatile")
		}
		if g.Atomic {
			b.WriteString(" atomic")
		}
		if len(g.Init) > 0 {
			fmt.Fprintf(&b, " init %v", g.Init)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func refModuleString(m *ir.Module) string {
	var b strings.Builder
	b.WriteString(refHeaderString(m))
	for _, f := range m.Funcs {
		b.WriteString("\n")
		refWriteFunc(&b, f)
	}
	return b.String()
}

func refFuncString(f *ir.Func) string {
	var b strings.Builder
	refWriteFunc(&b, f)
	return b.String()
}

func refWriteFunc(b *strings.Builder, f *ir.Func) {
	fmt.Fprintf(b, "define %s @%s(", refType(f.RetTy), f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %%%s", refType(p.Ty), p.PName)
	}
	b.WriteString(") {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			fmt.Fprintf(b, "  %s\n", refInstrString(in))
		}
	}
	b.WriteString("}\n")
}

func refInstrString(in *ir.Instr) string {
	var b strings.Builder
	if in.Type() != ir.Void {
		fmt.Fprintf(&b, "%s = ", refOperand(in))
	}
	switch in.Op {
	case ir.OpAlloca:
		fmt.Fprintf(&b, "alloca %s", refType(in.AllocElem))
	case ir.OpLoad:
		fmt.Fprintf(&b, "load %s, %s", refType(in.Ty), refOperand(in.Args[0]))
		refWriteAccessAttrs(&b, in)
	case ir.OpStore:
		fmt.Fprintf(&b, "store %s, %s", refOperand(in.Args[1]), refOperand(in.Args[0]))
		refWriteAccessAttrs(&b, in)
	case ir.OpCmpXchg:
		fmt.Fprintf(&b, "cmpxchg %s, %s, %s", refOperand(in.Args[0]), refOperand(in.Args[1]), refOperand(in.Args[2]))
		refWriteAccessAttrs(&b, in)
	case ir.OpRMW:
		fmt.Fprintf(&b, "atomicrmw %s %s, %s", refRMWNames[in.RMW], refOperand(in.Args[0]), refOperand(in.Args[1]))
		refWriteAccessAttrs(&b, in)
	case ir.OpFence:
		fmt.Fprintf(&b, "fence %s", refOrdNames[in.Ord])
		if in.Marks != 0 {
			fmt.Fprintf(&b, " ; [%s]", refMark(in.Marks))
		}
	case ir.OpBin:
		fmt.Fprintf(&b, "%s %s, %s", refBinNames[in.BinKind], refOperand(in.Args[0]), refOperand(in.Args[1]))
	case ir.OpICmp:
		fmt.Fprintf(&b, "icmp %s %s, %s", refPredNames[in.Pred], refOperand(in.Args[0]), refOperand(in.Args[1]))
	case ir.OpGEP:
		fmt.Fprintf(&b, "getelementptr %s, %s", refType(in.GEPBase), refOperand(in.Args[0]))
		dyn := 1
		for _, st := range in.Path {
			if st.Field >= 0 {
				fmt.Fprintf(&b, ", field %d", st.Field)
			} else {
				fmt.Fprintf(&b, ", index %s", refOperand(in.Args[dyn]))
				dyn++
			}
		}
	case ir.OpCall:
		fmt.Fprintf(&b, "call %s @%s(", refType(in.Type()), in.Callee)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(refOperand(a))
		}
		b.WriteString(")")
	case ir.OpBr:
		if in.Else == nil {
			fmt.Fprintf(&b, "br label %%%s", in.Then.Name)
		} else {
			fmt.Fprintf(&b, "br %s, label %%%s, label %%%s", refOperand(in.Args[0]), in.Then.Name, in.Else.Name)
		}
	case ir.OpRet:
		if len(in.Args) == 0 {
			b.WriteString("ret void")
		} else {
			fmt.Fprintf(&b, "ret %s", refOperand(in.Args[0]))
		}
	}
	return b.String()
}

func refWriteAccessAttrs(b *strings.Builder, in *ir.Instr) {
	if in.Volatile {
		b.WriteString(" volatile")
	}
	if in.Ord != ir.NotAtomic {
		fmt.Fprintf(b, " %s", refOrdNames[in.Ord])
	}
	if in.Marks != 0 {
		fmt.Fprintf(b, " ; [%s]", refMark(in.Marks))
	}
}
