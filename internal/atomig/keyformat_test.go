package atomig

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// TestFuncKeyFormatPinned pins the detection-cache key format: the salt
// and every function key of two corpus programs — one with a struct
// layout, one with an annotated global, each before and after porting
// — and a salt under non-default options must equal the digests
// recorded before the printer moved to ir.AppendFunc. The daemon's
// detection cache and optimize memo are keyed on these values.
func TestFuncKeyFormatPinned(t *testing.T) {
	pinned := []struct {
		program string
		ported  bool
		salt    string
		keys    map[string]string
	}{
		{"ck_spinlock_mcs", false, "a1ceb453142ac43f22c812684f7befd95fc05862da180d4092ecbf976ad6f386", map[string]string{
			"bench_record": "fad8ec7321e081d01cc27984894a46b8662f6af728b5e0d8d2a4cf43d5e7311c",
			"mcs_lock":     "3da3a38fb1ec7b9dc6b95419c5ff7949129040c13a817a1f140b77c7a4f07407",
			"mcs_unlock":   "aedd77458b1e1d6b985cdc9829deb2701b9d073678f4dc8e641fbdac93f9a99f",
			"t0":           "cc5b6f0f2249960705ba1539dc78f9cfeab86a1f62783446d27b2a3aca5c4524",
			"t1":           "a4c92a7ccebd66efd33dcc5f068dcbaa4a4f1f8bbec2149c23d5b1237505e5cc",
			"main_thread":  "cbf06f39172a343548c7149b8d494edf23c59e86291343815b41cc716fb16818",
			"perf_worker0": "e73c865ae28e69d382ad2d9e12dcfaecddea0f6bfcb28aca4223a792d5b2a58d",
			"perf_worker1": "07ae6263e82dcd074c6d058e0339e6e3835ad2f19e0816a4ba0f6a5337a2dfe5",
			"perf_main":    "66b81adf6ded62a8357909c0370638e5e87ecc31baf7135ecdb4cd3952c83597",
		}},
		{"ck_spinlock_mcs", true, "a1ceb453142ac43f22c812684f7befd95fc05862da180d4092ecbf976ad6f386", map[string]string{
			"bench_record": "fad8ec7321e081d01cc27984894a46b8662f6af728b5e0d8d2a4cf43d5e7311c",
			"mcs_lock":     "99f91a176d87416de59c21fdbb8d453f4239b7cd91530cff111f1e44b93130ac",
			"mcs_unlock":   "eb2b8779e6b8c3c9fd20801fb00660dfa4bbb47b5711557a462c95ab98cb0903",
			"t0":           "5f159491ddf345b21bc4c28665acad61ff4bf5008cb659df3326970c9093c056",
			"t1":           "2ed424017e15bbf988ed6ae2f1d70771a50c7219d323f0512aec908e728069ef",
			"main_thread":  "cbf06f39172a343548c7149b8d494edf23c59e86291343815b41cc716fb16818",
			"perf_worker0": "d861a09c02c9aca60d774846ddaf416f0afff4c0ea267d2e086f82210e3304c5",
			"perf_worker1": "eed0f87630497851190fd2c5e6435126adbf3ddf1da13d567e5633150032257c",
			"perf_main":    "66b81adf6ded62a8357909c0370638e5e87ecc31baf7135ecdb4cd3952c83597",
		}},
		{"ck_sequence", false, "97a1552df41fe2cc5c92186d768347e7c27ffe6ee1077dc6c2c5f92a8bda66ee", map[string]string{
			"bench_record": "c70fb99565ee22d5921335bb80dbdee0ac1ff5c405c95741eaad7c1efd4612a2",
			"seq_write":    "e6eeb7dbdf58270af607bef0187151047f0f6f9d5a4bc9f580a87c4de1a32b76",
			"seq_read":     "4285a67f73e241d57a81060ca7dd3212e4397edf80e61767aefed648c66720b4",
			"writer":       "0670a16591e4d6b81792c3815d179df9b130b3de71e67ec08ab33cf5dabef24d",
			"reader":       "6d1a852c63747323059164857df25a5ccb40c0a8a418c1473492ad4f25e0e2b6",
			"perf_writer":  "863f1a380db56dbeb9f17b36e7e1d71f3177cf27f4a25dded7207ef291eee7f8",
			"perf_reader":  "2e97b12ad0f764294996d486e8ab580b1e0bda30369d29344beb971d6b45de67",
		}},
		{"ck_sequence", true, "97a1552df41fe2cc5c92186d768347e7c27ffe6ee1077dc6c2c5f92a8bda66ee", map[string]string{
			"bench_record": "c70fb99565ee22d5921335bb80dbdee0ac1ff5c405c95741eaad7c1efd4612a2",
			"seq_write":    "1b943088c1f6fd1c138e01db14fa714ca1cb9fcdde1a22709d416ca5f46d5a27",
			"seq_read":     "8140cc61ef9fcfa1aac2c060bbf301684da923d48b3a89742b49ad2fef90d197",
			"writer":       "c55bd1613c5127b00715c317aead04584abaa021b892a84abf65744eb041ae45",
			"reader":       "9c6db0807be65fa3e1eb0dc15eab4d9e36fbfdc9b6464cad39a79d3b146b2063",
			"perf_writer":  "d599bf0f7d87bbfe24244c9a6b863274863721251cbedb30acfa01efc1541013",
			"perf_reader":  "293573016f433e1bc29002c531d15cc37dbbab2f05609fac932d3cd545352819",
		}},
	}
	for _, c := range pinned {
		m, err := corpus.Get(c.program).Compile()
		if err != nil {
			t.Fatal(err)
		}
		label := c.program
		if c.ported {
			label += " ported"
			if m, _, err = PortClone(m, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
		salt := CacheSalt(m, DefaultOptions())
		if salt != c.salt {
			t.Errorf("%s: CacheSalt = %s, pinned %s", label, salt, c.salt)
		}
		if len(m.Funcs) != len(c.keys) {
			t.Errorf("%s: %d functions, %d pinned", label, len(m.Funcs), len(c.keys))
		}
		for _, f := range m.Funcs {
			if got, want := FuncKey(salt, f), c.keys[f.Name]; got != want {
				t.Errorf("%s: FuncKey(@%s) = %s, pinned %s", label, f.Name, got, want)
			}
		}
	}

	m, err := corpus.Get("ck_sequence").Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Level = LevelSpin
	opts.DetectPolling = !opts.DetectPolling
	opts.BarrierSeeds = !opts.BarrierSeeds
	opts.OptimizeSalt = "wmm|races=true"
	if got, want := CacheSalt(m, opts), "6d8fdf745079725a858fedede35a5e01d14c0b757f783474154107d88c925575"; got != want {
		t.Errorf("CacheSalt under non-default options = %s, pinned %s", got, want)
	}
}

// TestFuncKeyAllocsIndependentOfSize: a key's allocations do not grow
// with the function — the text is printed into a pooled buffer and
// hashed in place, never materialized as a string.
func TestFuncKeyAllocsIndependentOfSize(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	salt := CacheSalt(ir.NewModule("k"), DefaultOptions())
	allocs := func(n int) float64 {
		var b strings.Builder
		fmt.Fprintf(&b, "; module k\n@x = global i64\n\ndefine void @f() {\nentry:\n")
		for i := 0; i < n-1; i++ {
			b.WriteString("  store 1, @x\n")
		}
		b.WriteString("  ret void\n}\n")
		m, err := ir.ParseModule(b.String())
		if err != nil {
			t.Fatal(err)
		}
		f := m.Func("f")
		if got := f.NumInstrs(); got != n {
			t.Fatalf("built %d instructions, want %d", got, n)
		}
		FuncKey(salt, f) // warm the buffer pool
		return testing.AllocsPerRun(50, func() { FuncKey(salt, f) })
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Fatalf("FuncKey allocations: %v for 10 instructions, %v for 1000", small, large)
	}
	t.Logf("FuncKey: %v allocations per key", small)
}
