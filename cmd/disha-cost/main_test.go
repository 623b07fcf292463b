package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCostTable builds the binary and pins its two contracts: the default
// output is the paper's Section 3.4 comparison (7.01 ns vs 7.08 ns, +0.9%),
// and a flag value the cost model cannot evaluate is refused with one line
// and exit 2 — never a goroutine trace from inside the model.
func TestCostTable(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "disha-cost")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build disha-cost: %v\n%s", err, out)
	}
	run := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("disha-cost %v did not run", args)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}

	out, code := run()
	if code != 0 {
		t.Fatalf("disha-cost exit %d:\n%s", code, out)
	}
	for _, want := range []string{"7.01 ns", "7.08 ns", "+0.9%"} {
		if !strings.Contains(out, want) {
			t.Errorf("default output lacks the paper's %q:\n%s", want, out)
		}
	}
	if out, code := run("-degree", "6", "-vcs", "4", "-sweep", "3"); code != 0 || !strings.Contains(out, "VC sweep:") {
		t.Errorf("-sweep 3: exit %d, output:\n%s", code, out)
	}

	for _, bad := range []string{"-vcs 0", "-vcs -3", "-degree 0", "-sweep -1"} {
		out, code := run(strings.Fields(bad)...)
		if code != 2 || strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "disha-cost: ") || strings.Contains(out, "goroutine") {
			t.Errorf("disha-cost %s: exit %d, want 2 with a one-line message; output:\n%s", bad, code, out)
		}
	}
}
