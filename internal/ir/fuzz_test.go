package ir_test

import (
	"testing"

	"repro/internal/diag"
	"repro/internal/ir"
)

// FuzzParseRoundTrip feeds arbitrary text to the AIR parser. Malformed
// text must produce an ordinary error (a contained panic is a parser
// bug); accepted text must survive parse → print → parse with a stable
// second print, which pins the printer and parser to each other, and
// the print must equal the reference printer's byte for byte.
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		"",
		"; module m\n",
		"; module m\n@x = global i64\n\ndefine void @f() {\nentry:\n  store 1, @x\n  ret void\n}\n",
		"; module mp\n@flag = global i64\n@msg = global i64\n\ndefine void @writer() {\nentry:\n  store 1, @msg\n  store 1, @flag\n  ret void\n}\n\ndefine void @reader() {\nentry:\n  br label %cond1\ncond1:\n  %t2 = load i64, @flag\n  %t3 = icmp eq %t2, 0\n  br %t3, label %body2, label %endloop3\nbody2:\n  br label %cond1\nendloop3:\n  %t5 = load i64, @msg\n  %t6 = icmp eq %t5, 1\n  call void @assert(%t6)\n  ret void\n}\n",
		"garbage that is not AIR",
		"define void @broken() {\n",
		"@x = global\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 16<<10 {
			t.Skip("oversized input")
		}
		m, err := ir.ParseModule(text)
		if err != nil {
			if ie, ok := diag.AsInternal(err); ok {
				t.Fatalf("parser panicked on input:\n%s\n%s", text, ie.Diagnostics())
			}
			return
		}
		printed := m.String()
		if ref := refModuleString(m); printed != ref {
			t.Fatalf("print differs from the reference printer\n%s\ninput:\n%s", firstDiff(printed, ref), text)
		}
		m2, err := ir.ParseModule(printed)
		if err != nil {
			t.Fatalf("printed AIR does not re-parse: %v\ninput:\n%s\nAIR:\n%s", err, text, printed)
		}
		if again := m2.String(); again != printed {
			t.Fatalf("print is not a fixed point\nfirst:\n%s\nsecond:\n%s", printed, again)
		}
	})
}
