package ir

import (
	"sort"
	"strconv"
	"strings"
)

// The AIR printer. Every textual rendering of IR — Module.String,
// HeaderString, FuncString, Instr.String, the Operand methods, type
// strings and struct layouts — is built from the append functions in
// this file, so there is one printer and the text each surface produces
// is byte-identical to the others. The appenders write into a
// caller-owned buffer and allocate nothing once it is large enough:
// callers that print many functions (the detection-cache key, Module
// String) reuse one buffer across all of them.

// AppendFunc appends the AIR text of f — its define line, every block
// and instruction, and the closing brace with its newline — to dst and
// returns the extended buffer.
func AppendFunc(dst []byte, f *Func) []byte {
	dst = append(dst, "define "...)
	dst = appendType(dst, f.RetTy)
	dst = append(dst, " @"...)
	dst = append(dst, f.Name...)
	dst = append(dst, '(')
	for i, p := range f.Params {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendType(dst, p.Ty)
		dst = append(dst, " %"...)
		dst = append(dst, p.PName...)
	}
	dst = append(dst, ") {\n"...)
	for _, blk := range f.Blocks {
		dst = append(dst, blk.Name...)
		dst = append(dst, ":\n"...)
		for _, in := range blk.Instrs {
			dst = append(dst, "  "...)
			dst = AppendInstr(dst, in)
			dst = append(dst, '\n')
		}
	}
	return append(dst, "}\n"...)
}

// AppendInstr appends the AIR text of one instruction (no indent, no
// newline) to dst and returns the extended buffer.
func AppendInstr(dst []byte, in *Instr) []byte {
	if in.Type() != Void {
		dst = appendOperand(dst, in)
		dst = append(dst, " = "...)
	}
	switch in.Op {
	case OpAlloca:
		dst = append(dst, "alloca "...)
		dst = appendType(dst, in.AllocElem)
	case OpLoad:
		dst = append(dst, "load "...)
		dst = appendType(dst, in.Ty)
		dst = append(dst, ", "...)
		dst = appendOperand(dst, in.Args[0])
		dst = appendAccessAttrs(dst, in)
	case OpStore:
		dst = append(dst, "store "...)
		dst = appendOperands(dst, in.Args[1], in.Args[0])
		dst = appendAccessAttrs(dst, in)
	case OpCmpXchg:
		dst = append(dst, "cmpxchg "...)
		dst = appendOperands(dst, in.Args[0], in.Args[1])
		dst = append(dst, ", "...)
		dst = appendOperand(dst, in.Args[2])
		dst = appendAccessAttrs(dst, in)
	case OpRMW:
		dst = append(dst, "atomicrmw "...)
		dst = append(dst, in.RMW.String()...)
		dst = append(dst, ' ')
		dst = appendOperands(dst, in.Args[0], in.Args[1])
		dst = appendAccessAttrs(dst, in)
	case OpFence:
		dst = append(dst, "fence "...)
		dst = append(dst, in.Ord.String()...)
		dst = appendMarkComment(dst, in.Marks)
	case OpBin:
		dst = append(dst, in.BinKind.String()...)
		dst = append(dst, ' ')
		dst = appendOperands(dst, in.Args[0], in.Args[1])
	case OpICmp:
		dst = append(dst, "icmp "...)
		dst = append(dst, in.Pred.String()...)
		dst = append(dst, ' ')
		dst = appendOperands(dst, in.Args[0], in.Args[1])
	case OpGEP:
		dst = append(dst, "getelementptr "...)
		dst = appendType(dst, in.GEPBase)
		dst = append(dst, ", "...)
		dst = appendOperand(dst, in.Args[0])
		dyn := 1
		for _, st := range in.Path {
			if st.Field >= 0 {
				dst = append(dst, ", field "...)
				dst = strconv.AppendInt(dst, int64(st.Field), 10)
			} else {
				dst = append(dst, ", index "...)
				dst = appendOperand(dst, in.Args[dyn])
				dyn++
			}
		}
	case OpCall:
		dst = append(dst, "call "...)
		dst = appendType(dst, in.Type())
		dst = append(dst, " @"...)
		dst = append(dst, in.Callee...)
		dst = append(dst, '(')
		for i, a := range in.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendOperand(dst, a)
		}
		dst = append(dst, ')')
	case OpBr:
		if in.Else == nil {
			dst = append(dst, "br label %"...)
			dst = append(dst, in.Then.Name...)
		} else {
			dst = append(dst, "br "...)
			dst = appendOperand(dst, in.Args[0])
			dst = append(dst, ", label %"...)
			dst = append(dst, in.Then.Name...)
			dst = append(dst, ", label %"...)
			dst = append(dst, in.Else.Name...)
		}
	case OpRet:
		if len(in.Args) == 0 {
			dst = append(dst, "ret void"...)
		} else {
			dst = append(dst, "ret "...)
			dst = appendOperand(dst, in.Args[0])
		}
	}
	return dst
}

// appendOperands appends "a, b".
func appendOperands(dst []byte, a, b Value) []byte {
	dst = appendOperand(dst, a)
	dst = append(dst, ", "...)
	return appendOperand(dst, b)
}

// appendAccessAttrs appends a memory access's trailing attributes:
// volatile, the ordering when atomic, and the mark comment.
func appendAccessAttrs(dst []byte, in *Instr) []byte {
	if in.Volatile {
		dst = append(dst, " volatile"...)
	}
	if in.Ord != NotAtomic {
		dst = append(dst, ' ')
		dst = append(dst, in.Ord.String()...)
	}
	return appendMarkComment(dst, in.Marks)
}

// appendMarkComment appends " ; [marks]" when any mark is set.
func appendMarkComment(dst []byte, m Mark) []byte {
	if m == 0 {
		return dst
	}
	dst = append(dst, " ; ["...)
	dst = appendMarks(dst, m)
	return append(dst, ']')
}

// markNames lists the mark bits in print order with their names.
var markNames = [...]struct {
	bit  Mark
	name string
}{
	{MarkSpinControl, "spin"},
	{MarkOptControl, "opt"},
	{MarkSticky, "sticky"},
	{MarkFromVolatile, "volatile"},
	{MarkFromAtomic, "atomic-upgrade"},
	{MarkFromAsm, "asm"},
	{MarkInsertedFence, "inserted"},
	{MarkNaive, "naive"},
	{MarkWeakened, "weakened"},
}

// appendMarks appends the comma-separated names of the set mark bits.
func appendMarks(dst []byte, m Mark) []byte {
	first := true
	for _, mn := range markNames {
		if m&mn.bit == 0 {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, mn.name...)
	}
	return dst
}

// appendOperand appends v's operand text ("42", "@flag", "%x", "%t3").
func appendOperand(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case *Instr:
		dst = append(dst, "%t"...)
		return strconv.AppendInt(dst, int64(x.ID), 10)
	case *ConstInt:
		return strconv.AppendInt(dst, x.V, 10)
	case *Global:
		dst = append(dst, '@')
		return append(dst, x.GName...)
	case *Param:
		dst = append(dst, '%')
		return append(dst, x.PName...)
	case *FuncRef:
		dst = append(dst, '@')
		return append(dst, x.Fn.Name...)
	}
	return append(dst, v.Operand()...)
}

// appendType appends t's type text ("i64", "ptr %node", "[4 x i64]").
func appendType(dst []byte, t Type) []byte {
	switch x := t.(type) {
	case *IntType:
		dst = append(dst, 'i')
		return strconv.AppendInt(dst, int64(x.Bits), 10)
	case *PtrType:
		dst = append(dst, "ptr "...)
		return appendType(dst, x.Elem)
	case *StructType:
		dst = append(dst, '%')
		return append(dst, x.TypeName...)
	case *ArrayType:
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(x.Len), 10)
		dst = append(dst, " x "...)
		dst = appendType(dst, x.Elem)
		return append(dst, ']')
	case *VoidType:
		return append(dst, "void"...)
	}
	return append(dst, t.String()...)
}

// appendLayout appends the struct's type definition line (no newline).
func appendLayout(dst []byte, t *StructType) []byte {
	dst = append(dst, '%')
	dst = append(dst, t.TypeName...)
	dst = append(dst, " = type {"...)
	for i, f := range t.Fields {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendType(dst, f.Type)
		dst = append(dst, ' ')
		dst = append(dst, f.Name...)
		if f.Volatile {
			dst = append(dst, " volatile"...)
		}
		if f.Atomic {
			dst = append(dst, " atomic"...)
		}
	}
	return append(dst, '}')
}

// appendHeader appends the module comment line, the struct layouts in
// name order and the globals in declaration order, each on its own
// line.
func (m *Module) appendHeader(dst []byte) []byte {
	dst = append(dst, "; module "...)
	dst = append(dst, m.Name...)
	dst = append(dst, '\n')
	names := make([]string, 0, len(m.Structs))
	for n := range m.Structs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		dst = appendLayout(dst, m.Structs[n])
		dst = append(dst, '\n')
	}
	for _, g := range m.Globals {
		dst = append(dst, '@')
		dst = append(dst, g.GName...)
		dst = append(dst, " = global "...)
		dst = appendType(dst, g.Elem)
		if g.Volatile {
			dst = append(dst, " volatile"...)
		}
		if g.Atomic {
			dst = append(dst, " atomic"...)
		}
		if len(g.Init) > 0 {
			dst = append(dst, " init ["...)
			for i, v := range g.Init {
				if i > 0 {
					dst = append(dst, ' ')
				}
				dst = strconv.AppendInt(dst, v, 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '\n')
	}
	return dst
}

// HeaderString renders the module's struct layouts and globals without
// any functions — the parse context for a function-level delta.
func (m *Module) HeaderString() string { return string(m.appendHeader(nil)) }

// String renders the whole module in AIR textual syntax: the header,
// then each function preceded by a blank line. The result is allocated
// once at its final size: a first pass renders every function into one
// reused scratch buffer only to measure it, so a large module's text is
// never grown by doubling.
func (m *Module) String() string {
	hdr := m.appendHeader(nil)
	var scratch []byte
	n := len(hdr)
	for _, f := range m.Funcs {
		scratch = AppendFunc(scratch[:0], f)
		n += 1 + len(scratch)
	}
	var b strings.Builder
	b.Grow(n)
	b.Write(hdr)
	for _, f := range m.Funcs {
		b.WriteByte('\n')
		scratch = AppendFunc(scratch[:0], f)
		b.Write(scratch)
	}
	return b.String()
}

// FuncString renders a single function in AIR textual syntax.
func FuncString(f *Func) string { return string(AppendFunc(nil, f)) }

// String renders the instruction in AIR textual syntax.
func (in *Instr) String() string {
	var buf [64]byte
	return string(AppendInstr(buf[:0], in))
}

// Layout returns the textual definition of the struct (parseable by
// ParseModule).
func (t *StructType) Layout() string { return string(appendLayout(nil, t)) }
