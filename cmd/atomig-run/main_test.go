package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Malformed inputs must produce a structured error on stderr and exit
// code 2 — never a panic.
func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no args", nil},
		{"bad flag", []string{"-definitely-not-a-flag"}},
		{"unknown corpus", []string{"-corpus", "nope"}},
		{"unknown model", []string{"-corpus", "mp", "-model", "psc"}},
		{"unknown sched", []string{"-corpus", "mp", "-sched", "chaotic"}},
		{"missing file", []string{"-entries", "a", "/nonexistent/x.c"}},
		{"malformed minic", []string{"-entries", "a", writeFile(t, "bad.c", "void f( {")}},
		{"malformed air", []string{"-entries", "a", writeFile(t, "bad.air", "define [")}},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr)
		}
		if strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: stderr looks like a panic:\n%s", tc.name, stderr)
		}
	}
}

const mpSrc = `
int flag;
int msg;
int out;
void writer(void) { msg = 41; flag = 1; }
void reader(void) {
  while (flag == 0) { }
  out = msg;
}
`

// Every scheduler mode drives a completing execution and exits 0.
func TestSchedulerModes(t *testing.T) {
	path := writeFile(t, "mp.c", mpSrc)
	for _, mode := range []string{"random", "starve", "delay", "reorder", "burst"} {
		code, stdout, stderr := runCLI(t,
			"-entries", "reader,writer", "-sched", mode, "-max-steps", "2000000", path)
		if code != 0 {
			t.Errorf("sched %s: exit %d\nstdout:\n%s\nstderr:\n%s", mode, code, stdout, stderr)
			continue
		}
		if !strings.Contains(stdout, "status=done") || !strings.Contains(stdout, "sched="+mode) {
			t.Errorf("sched %s: unexpected output:\n%s", mode, stdout)
		}
	}
}

// A livelocked run exits 1, and -watchdog prints the diagnosis.
func TestWatchdogReportAndExitCode(t *testing.T) {
	path := writeFile(t, "spin.c", `
int flag;
void spin(void) {
  while (flag == 0) { }
}
`)
	code, stdout, stderr := runCLI(t,
		"-entries", "spin", "-max-steps", "10000", "-watchdog", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"status=step-limit", "livelock watchdog", "@spin"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// An assertion failure exits 1 with the failure message.
func TestAssertFailureExitCode(t *testing.T) {
	path := writeFile(t, "fail.c", `
void boom(void) { assert(0); }
`)
	code, stdout, _ := runCLI(t, "-entries", "boom", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "status=assert-failed") {
		t.Errorf("stdout lacks status=assert-failed:\n%s", stdout)
	}
}

// -race attaches the detector: a racy execution exits 3 with reports,
// a ported one exits 0 with "races: none".
func TestRaceFlagExitCode(t *testing.T) {
	code, stdout, _ := runCLI(t, "-corpus", "seqlock-gap", "-model", "wmm", "-sched", "reorder", "-race")
	if code != 3 {
		t.Fatalf("racy program: exit %d, want 3\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "data race on %gen:0") {
		t.Errorf("stdout lacks the %%gen:0 report:\n%s", stdout)
	}
	code, stdout, _ = runCLI(t, "-corpus", "seqlock-gap", "-model", "wmm", "-sched", "reorder", "-race", "-port")
	if code != 0 {
		t.Fatalf("ported program: exit %d, want 0\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "races: none") {
		t.Errorf("stdout lacks races: none:\n%s", stdout)
	}
}

// -stress runs under TSO or WMM only. The stress engine reads a zero
// model as WMM, so -model sc (also the default) must be refused as a
// usage error instead of silently sweeping WMM.
func TestStressRejectsSC(t *testing.T) {
	for _, args := range [][]string{
		{"-corpus", "mp", "-mc", "-stress", "-seeds", "4"},
		{"-corpus", "mp", "-mc", "-model", "sc", "-stress", "-seeds", "4"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2\n%s", args, code, stdout)
		}
		if !strings.Contains(stderr, "-model tso or -model wmm") {
			t.Errorf("%v: stderr does not name the accepted models:\n%s", args, stderr)
		}
	}
	// TSO hides mp's reordering but not its plain-access races.
	code, stdout, stderr := runCLI(t, "-corpus", "mp", "-mc", "-model", "tso", "-stress", "-seeds", "4")
	if code != 3 {
		t.Fatalf("-model tso -stress: exit %d, want 3\n%s%s", code, stdout, stderr)
	}
}
