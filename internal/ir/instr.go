package ir

// Op identifies the operation an instruction performs.
type Op uint8

// Instruction opcodes.
const (
	OpAlloca  Op = iota // allocate a stack slot; result: ptr to AllocElem
	OpLoad              // load from Args[0]; result: pointee type
	OpStore             // store Args[1] to address Args[0]
	OpCmpXchg           // compare-exchange at Args[0]: expected Args[1], new Args[2]; result: old value
	OpRMW               // atomic read-modify-write at Args[0] with operand Args[1]; result: old value
	OpFence             // memory fence with ordering Ord
	OpBin               // binary arithmetic/logic: Args[0] BinKind Args[1]
	OpICmp              // integer comparison: Args[0] Pred Args[1]; result i1
	OpGEP               // address arithmetic: base Args[0], path Path (dyn indices in Args[1:])
	OpCall              // call Callee with Args; result: callee return type
	OpBr                // branch: unconditional to Then, or on Args[0] to Then/Else
	OpRet               // return (optionally Args[0])
)

// enumName returns names[i], or "" for a value outside the table.
func enumName(names []string, i int) string {
	if uint(i) < uint(len(names)) {
		return names[i]
	}
	return ""
}

var opNames = [...]string{
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store",
	OpCmpXchg: "cmpxchg", OpRMW: "atomicrmw", OpFence: "fence",
	OpBin: "bin", OpICmp: "icmp", OpGEP: "getelementptr",
	OpCall: "call", OpBr: "br", OpRet: "ret",
}

func (o Op) String() string { return enumName(opNames[:], int(o)) }

// MemOrder is the memory ordering attached to a memory access or fence,
// following the C11 orderings the paper manipulates.
type MemOrder uint8

// Memory orderings, from weakest to strongest.
const (
	NotAtomic MemOrder = iota
	Relaxed
	Acquire
	Release
	AcqRel
	SeqCst
)

var ordNames = [...]string{
	NotAtomic: "plain", Relaxed: "relaxed", Acquire: "acquire",
	Release: "release", AcqRel: "acq_rel", SeqCst: "seq_cst",
}

func (m MemOrder) String() string { return enumName(ordNames[:], int(m)) }

// Atomic reports whether the ordering denotes an atomic access.
func (m MemOrder) Atomic() bool { return m != NotAtomic }

// BinKind is the operator of an OpBin instruction.
type BinKind uint8

// Binary operators.
const (
	Add BinKind = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
)

var binNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "sdiv", Rem: "srem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "ashr",
}

func (b BinKind) String() string { return enumName(binNames[:], int(b)) }

// Pred is the predicate of an OpICmp instruction.
type Pred uint8

// Comparison predicates.
const (
	EQ Pred = iota
	NE
	LT
	LE
	GT
	GE
)

var predNames = [...]string{EQ: "eq", NE: "ne", LT: "slt", LE: "sle", GT: "sgt", GE: "sge"}

func (p Pred) String() string { return enumName(predNames[:], int(p)) }

// RMWKind is the operation of an OpRMW instruction.
type RMWKind uint8

// Read-modify-write operations.
const (
	RMWAdd RMWKind = iota
	RMWSub
	RMWAnd
	RMWOr
	RMWXor
	RMWXchg
)

var rmwNames = [...]string{
	RMWAdd: "add", RMWSub: "sub", RMWAnd: "and", RMWOr: "or",
	RMWXor: "xor", RMWXchg: "xchg",
}

func (r RMWKind) String() string { return enumName(rmwNames[:], int(r)) }

// Mark is a bit set of analysis/transformation annotations on an
// instruction. Marks let the pipeline record which detector claimed an
// access and why it was transformed, and they make "once stickied,
// always stickied" cheap (paper section 3.5).
type Mark uint16

// Instruction marks.
const (
	MarkSpinControl   Mark = 1 << iota // access to a spin-control location
	MarkOptControl                     // access to an optimistic-control location
	MarkSticky                         // transformed via alias exploration
	MarkFromVolatile                   // transformed because the location was volatile
	MarkFromAtomic                     // upgraded from an existing weaker atomic
	MarkFromAsm                        // produced by inline-asm builtin mapping
	MarkInsertedFence                  // fence inserted by the optimistic-loop transform
	MarkNaive                          // transformed by the naive all-SC strategy
	MarkWeakened                       // ordering weakened by the checker-in-the-loop optimizer
)

func (m Mark) String() string { return string(appendMarks(nil, m)) }

// GEPStep is one step of a getelementptr path. Either Field >= 0 names a
// constant struct-field index, or Field < 0 and the step indexes an array
// with the dynamic value found in the instruction's Args.
type GEPStep struct {
	// Field is the constant struct-field index, or -1 for a dynamic array
	// index.
	Field int
}

// Instr is a single AIR instruction. A single struct covers all opcodes
// so that passes can rewrite instructions in place (e.g. flip a plain
// load to a seq_cst load) without reallocating the instruction stream.
type Instr struct {
	ID int // unique within the function; the result register is %t<ID>

	// The byte-sized fields share the word after ID: a clone copies
	// every instruction of a module, so the struct's size is the clone's
	// size, and the opcode and ordering sit on the same cache line as
	// the operands the interpreter reads with them.
	Op Op

	// Ord is the memory ordering of loads, stores, cmpxchg, rmw, fences.
	Ord MemOrder

	// Volatile marks an access to a volatile-qualified location.
	Volatile bool

	// BinKind is the operator of an OpBin.
	BinKind BinKind

	// Pred is the predicate of an OpICmp.
	Pred Pred

	// RMW is the operation of an OpRMW.
	RMW RMWKind

	// Marks records analysis and transformation annotations.
	Marks Mark

	Blk *Block // owning basic block

	// Ty is the result type (Void for instructions without a result).
	Ty Type

	// Args holds the value operands. Layout per opcode is documented on
	// the Op constants.
	Args []Value

	// AllocElem is the element type of an OpAlloca.
	AllocElem Type

	// GEPBase is the pointee type the GEP path navigates (the type of
	// *Args[0]). Path describes the steps; dynamic indices appear in
	// Args[1:] in path order.
	GEPBase Type
	Path    []GEPStep

	// Callee is the called function or builtin name for OpCall.
	Callee string

	// Then and Else are branch targets for OpBr. Else is nil for an
	// unconditional branch.
	Then, Else *Block
}

// Type returns the result type of the instruction.
func (in *Instr) Type() Type {
	if in.Ty == nil {
		return Void
	}
	return in.Ty
}

// Operand returns the register name of the instruction's result.
func (in *Instr) Operand() string {
	var buf [24]byte
	return string(appendOperand(buf[:0], in))
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool { return in.Op == OpBr || in.Op == OpRet }

// IsMemAccess reports whether the instruction reads or writes shared
// memory (load, store, cmpxchg, rmw).
func (in *Instr) IsMemAccess() bool {
	switch in.Op {
	case OpLoad, OpStore, OpCmpXchg, OpRMW:
		return true
	}
	return false
}

// Reads reports whether the instruction reads from memory.
func (in *Instr) Reads() bool {
	switch in.Op {
	case OpLoad, OpCmpXchg, OpRMW:
		return true
	}
	return false
}

// Writes reports whether the instruction may write to memory.
func (in *Instr) Writes() bool {
	switch in.Op {
	case OpStore, OpCmpXchg, OpRMW:
		return true
	}
	return false
}

// Addr returns the address operand of a memory access, or nil.
func (in *Instr) Addr() Value {
	if in.IsMemAccess() {
		return in.Args[0]
	}
	return nil
}

// HasMark reports whether the given mark bit is set.
func (in *Instr) HasMark(m Mark) bool { return in.Marks&m != 0 }

// SetMark sets the given mark bit.
func (in *Instr) SetMark(m Mark) { in.Marks |= m }
