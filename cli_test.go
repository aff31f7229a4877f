package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIToolchain builds the command-line tools and drives the documented
// workflow end to end: dmpcc compiles and annotates a DML program, dmpprof
// inspects its profile, and dmpsim shows a DMP speedup over baseline on a
// hard-to-predict workload.
func TestCLIToolchain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping tool builds")
	}
	dir := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		return out
	}
	dmpcc := build("dmpcc")
	dmpprof := build("dmpprof")
	dmpsim := build("dmpsim")
	dmplint := build("dmplint")
	dmptrace := build("dmptrace")

	src := filepath.Join(dir, "prog.dml")
	err := os.WriteFile(src, []byte(`
var acc = 0;
func main() {
	while (inavail()) {
		var v = in();
		if (v & 1) { acc = acc + v; } else { acc = acc - 1; }
	}
	out(acc);
}
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tape := filepath.Join(dir, "tape.txt")
	var sb strings.Builder
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		fmt.Fprintln(&sb, rng.Intn(1024))
	}
	if err := os.WriteFile(tape, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(dir, "prog.dmp")
	run := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, out)
		}
		return string(out)
	}

	out := run(dmpcc, "-src", src, "-in", tape, "-o", bin)
	if !strings.Contains(out, "diverge branches") {
		t.Errorf("dmpcc output: %q", out)
	}
	// The optimizer path must also produce a loadable binary.
	run(dmpcc, "-src", src, "-in", tape, "-O", "-o", filepath.Join(dir, "prog_opt.dmp"))
	// Disassembly mode mentions the annotation.
	asm := run(dmpcc, "-src", src, "-in", tape, "-S")
	if !strings.Contains(asm, "main:") {
		t.Errorf("disassembly missing main:\n%s", asm[:min(len(asm), 400)])
	}

	// The static verifier must be clean on the compiled binary and on a
	// fresh compile+selection, and its JSON mode must emit an empty array.
	run(dmplint, bin)
	run(dmplint, "-src", src, "-in", tape, "-algo", "heur")
	if out := run(dmplint, "-json", bin); strings.TrimSpace(out) != "[]" {
		t.Errorf("dmplint -json on a clean binary: %q", out)
	}
	// A corrupted container must be reported, not crash the linter.
	raw, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	badBin := filepath.Join(dir, "bad.dmp")
	if err := os.WriteFile(badBin, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if msg, err := exec.Command(dmplint, badBin).CombinedOutput(); err == nil {
		t.Errorf("dmplint accepted a truncated binary:\n%s", msg)
	}

	prof := run(dmpprof, "-bin", bin, "-in", tape, "-top", "3")
	if !strings.Contains(prof, "MPKI") || !strings.Contains(prof, "mispredicted branches") {
		t.Errorf("dmpprof output: %q", prof)
	}
	// A negative row count is a usage error: not a slice-bounds panic
	// (dmpprof -top), and not a silent "print every row" (dmpsim -audit-top,
	// dmptrace -n).
	wantUsage := func(tool, want string, args ...string) {
		t.Helper()
		msg, err := exec.Command(tool, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(msg), want) {
			t.Errorf("%s %v: err %v, want exit status 2 and %q\n%s", filepath.Base(tool), args, err, want, msg)
		}
	}
	wantUsage(dmpprof, "-top must be non-negative", "-bin", bin, "-top", "-1")
	wantUsage(dmpsim, "-audit-top must be non-negative", "-bin", bin, "-in", tape, "-audit-top", "-1")
	wantUsage(dmptrace, "-n must be non-negative", "-n", "-1")

	base := run(dmpsim, "-bin", bin, "-in", tape)
	dmp := run(dmpsim, "-bin", bin, "-in", tape, "-dmp")
	baseIPC := extractFloat(t, base, "IPC")
	dmpIPC := extractFloat(t, dmp, "IPC")
	if dmpIPC <= baseIPC {
		t.Errorf("CLI DMP IPC %v <= baseline %v\nbaseline:\n%s\ndmp:\n%s", dmpIPC, baseIPC, base, dmp)
	}
	if !strings.Contains(dmp, "dpred entries") {
		t.Errorf("dmpsim -dmp output missing dpred stats:\n%s", dmp)
	}
}

func extractFloat(t *testing.T, out, field string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, field) {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, field)), "%f", &v); err == nil {
				return v
			}
		}
	}
	t.Fatalf("field %q not found in:\n%s", field, out)
	return 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
