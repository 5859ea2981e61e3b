package ir_test

import (
	"fmt"
	"testing"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/weaken"
)

// checkAgainstReference requires every printing surface of m to match
// the reference printer byte for byte: Module.String, HeaderString,
// FuncString, AppendFunc (into a reused buffer carrying a prefix),
// Instr.String, every operand, every type and every struct layout. It
// returns the union of the marks it saw.
func checkAgainstReference(t *testing.T, label string, m *ir.Module) ir.Mark {
	t.Helper()
	if got, want := m.String(), refModuleString(m); got != want {
		t.Fatalf("%s: Module.String differs from the reference\n%s", label, firstDiff(got, want))
	}
	if got, want := m.HeaderString(), refHeaderString(m); got != want {
		t.Fatalf("%s: HeaderString differs from the reference\n%s", label, firstDiff(got, want))
	}
	for name, st := range m.Structs {
		if got, want := st.Layout(), refLayout(st); got != want {
			t.Fatalf("%s: %%%s Layout = %q, reference %q", label, name, got, want)
		}
	}
	for _, g := range m.Globals {
		if got, want := g.Elem.String(), refType(g.Elem); got != want {
			t.Fatalf("%s: @%s type %q, reference %q", label, g.GName, got, want)
		}
	}
	var marks ir.Mark
	buf := []byte("prefix")
	for _, f := range m.Funcs {
		want := refFuncString(f)
		if got := ir.FuncString(f); got != want {
			t.Fatalf("%s: FuncString(@%s) differs from the reference\n%s", label, f.Name, firstDiff(got, want))
		}
		buf = ir.AppendFunc(buf[:len("prefix")], f)
		if got := string(buf); got != "prefix"+want {
			t.Fatalf("%s: AppendFunc(@%s) differs from the reference\n%s", label, f.Name, firstDiff(got, "prefix"+want))
		}
		for _, p := range f.Params {
			if got, want := p.Operand(), refOperand(p); got != want {
				t.Fatalf("%s: @%s param operand %q, reference %q", label, f.Name, got, want)
			}
		}
		f.Instrs(func(in *ir.Instr) {
			marks |= in.Marks
			if got, want := in.String(), refInstrString(in); got != want {
				t.Fatalf("%s: @%s Instr.String = %q, reference %q", label, f.Name, got, want)
			}
			if got, want := in.Operand(), refOperand(in); got != want {
				t.Fatalf("%s: @%s Instr.Operand = %q, reference %q", label, f.Name, got, want)
			}
			if got, want := in.Type().String(), refType(in.Type()); got != want {
				t.Fatalf("%s: @%s %s type %q, reference %q", label, f.Name, in, got, want)
			}
			for _, a := range in.Args {
				if got, want := a.Operand(), refOperand(a); got != want {
					t.Fatalf("%s: @%s operand %q, reference %q", label, f.Name, got, want)
				}
			}
		})
	}
	return marks
}

// firstDiff reports where two texts first diverge.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("at byte %d\ngot:  %q\nwant: %q", i, got[min(lo, len(got)):min(i+80, len(got))], want[min(lo, len(want)):min(i+80, len(want))])
}

// TestPrinterMatchesReference is the byte-identity oracle of the
// printer: every corpus program — original, ported and weakened, so
// every mark, ordering and fence form the pipeline produces is printed
// — a 20k-line generated module (original and ported), and a module
// that uses every opcode, ordering, mark and type form must print
// exactly as the reference fmt printer prints them.
func TestPrinterMatchesReference(t *testing.T) {
	seen := checkAgainstReference(t, "kitchen-sink", mustParse(t, kitchenSinkAIR))
	if seen != allMarks {
		t.Fatalf("kitchen-sink module covers marks %v, want every mark %v", seen, allMarks)
	}

	var pipelineMarks ir.Mark
	for _, p := range corpus.All() {
		orig, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, p.Name, orig)
		ported, _, err := atomig.PortClone(orig, atomig.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: port: %v", p.Name, err)
		}
		pipelineMarks |= checkAgainstReference(t, p.Name+" ported", ported)
		if p.ExpertSource != "" {
			expert, err := p.CompileExpert()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, p.Name+" expert", expert)
		}
		if len(p.MCEntries) == 0 || testing.Short() {
			continue
		}
		// The stress oracle on a two-seed grid weakens most programs in
		// milliseconds; only the printed forms matter here, not whether
		// each weakening would survive an exhaustive check.
		wopts := weaken.DefaultOptions(p.MCEntries)
		wopts.DetectRaces = false
		wopts.Oracle = weaken.OracleStress
		wopts.StressSeeds = 2
		weakened, _, err := weaken.OptimizeClone(ported, wopts)
		if err != nil {
			t.Fatalf("%s: weaken: %v", p.Name, err)
		}
		pipelineMarks |= checkAgainstReference(t, p.Name+" weakened", weakened)
	}
	if !testing.Short() && pipelineMarks&ir.MarkWeakened == 0 {
		t.Errorf("no weakened corpus program carries a weakened mark (marks seen: %v)", pipelineMarks)
	}

	src, _ := appgen.GenerateLarge(appgen.LargeSpec("printref", 20000, 7))
	res, err := minic.Compile("printref", src)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "large", res.Module)
	ported, _, err := atomig.PortClone(res.Module, atomig.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "large ported", ported)
}

// allMarks is the union of every instruction mark.
const allMarks = ir.MarkSpinControl | ir.MarkOptControl | ir.MarkSticky |
	ir.MarkFromVolatile | ir.MarkFromAtomic | ir.MarkFromAsm |
	ir.MarkInsertedFence | ir.MarkNaive | ir.MarkWeakened

func mustParse(t testing.TB, text string) *ir.Module {
	t.Helper()
	m, err := ir.ParseModule(text)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKitchenSinkIsCanonical pins the kitchen-sink module to its own
// print, so the reference comparison above runs on exactly the forms
// the text spells out.
func TestKitchenSinkIsCanonical(t *testing.T) {
	m := mustParse(t, kitchenSinkAIR)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if got := m.String(); got != kitchenSinkAIR {
		t.Fatalf("kitchen-sink module does not print back as written\n%s", firstDiff(got, kitchenSinkAIR))
	}
}

// TestAppendFuncAllocs: printing a function into a warm buffer
// allocates nothing, whatever opcodes, orderings, marks, GEP steps and
// aggregate types it uses.
func TestAppendFuncAllocs(t *testing.T) {
	f := mustParse(t, kitchenSinkAIR).Func("worker")
	buf := ir.AppendFunc(nil, f)
	allocs := testing.AllocsPerRun(100, func() {
		buf = ir.AppendFunc(buf[:0], f)
	})
	if allocs != 0 {
		t.Fatalf("AppendFunc into a warm buffer: %v allocations per call, want 0", allocs)
	}
}

// kitchenSinkAIR is a module in canonical printed form that uses every
// opcode, every memory ordering, every mark, every RMW, binary and
// comparison kind, both GEP step kinds, arrays, nested structs,
// volatile and atomic globals and fields, and an initialized global.
const kitchenSinkAIR = `; module kitchen
%inner = type {i64 a, [4 x i32] arr volatile}
%outer = type {%inner in, ptr %outer next atomic, i8 tag, i1 bit}
@flag = global i64 volatile
@counter = global i64 atomic
@table = global [3 x i64] init [1 -2 3]
@node = global %outer
@grid = global [2 x [2 x %inner]]

define i64 @worker(i64 %x, ptr %outer %p) {
entry:
  %t0 = alloca [8 x i64]
  %t1 = alloca %outer
  %t2 = load i64, @flag volatile seq_cst ; [spin,volatile]
  %t3 = load i64, @counter relaxed ; [opt,atomic-upgrade]
  %t4 = load i64, @counter acquire ; [sticky]
  store %t2, @counter release ; [asm]
  store %x, @flag volatile
  %t7 = cmpxchg @counter, %t3, 7 acq_rel ; [naive]
  %t8 = atomicrmw add @counter, 1 seq_cst ; [weakened]
  %t9 = atomicrmw sub @counter, 1 relaxed
  %t10 = atomicrmw and @counter, %t8 seq_cst
  %t11 = atomicrmw or @counter, %t9 seq_cst
  %t12 = atomicrmw xor @counter, -3 seq_cst
  %t13 = atomicrmw xchg @counter, %x seq_cst
  fence seq_cst ; [inserted]
  fence acquire
  fence release ; [spin,opt,sticky,volatile,atomic-upgrade,asm,inserted,naive,weakened]
  fence acq_rel
  %t18 = add %t2, %t3
  %t19 = sub %t18, 1
  %t20 = mul %t19, %t4
  %t21 = sdiv %t20, 2
  %t22 = srem %t21, 3
  %t23 = and %t22, %t7
  %t24 = or %t23, %t10
  %t25 = xor %t24, %t11
  %t26 = shl %t25, 1
  %t27 = ashr %t26, %t12
  %t28 = icmp eq %t27, 0
  %t29 = icmp ne %t27, %t13
  %t30 = icmp slt %t27, 1
  %t31 = icmp sle %t27, 2
  %t32 = icmp sgt %t27, 3
  %t33 = icmp sge %t27, 4
  %t34 = getelementptr %outer, %p, field 0, field 1, index %t27
  store 5, %t34 volatile
  %t36 = getelementptr [2 x [2 x %inner]], @grid, index 1, index %x, field 0
  %t37 = load i64, %t36
  %t38 = getelementptr [3 x i64], @table, index %t37
  %t39 = getelementptr %outer, @node, field 1
  %t40 = load ptr %outer, %t39 acquire
  %t41 = call i64 @helper(%t37, %t40)
  call void @spawn(@helper)
  br %t28, label %then, label %done
then:
  %t44 = getelementptr [8 x i64], %t0, index 2
  store %t41, %t44
  br label %done
done:
  %t47 = load i64, %t38
  ret %t47
}

define i64 @helper(i64 %v, ptr %outer %q) {
entry:
  ret %v
}

define void @main() {
entry:
  call void @spawn(@worker)
  ret void
}
`
