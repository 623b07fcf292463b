package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkerFlags builds the binary and pins what it refuses before it
// contacts anything: no coordinator is a usage error. (The lease loop itself
// is driven end to end, against a real disha-serve, by cmd/disha-serve's
// test.)
func TestWorkerFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "disha-worker")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build disha-worker: %v\n%s", err, out)
	}
	run := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("disha-worker %v did not run", args)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}

	out, code := run()
	if code != 2 || !strings.Contains(out, "-coordinator is required") || !strings.Contains(out, "Usage of") {
		t.Errorf("no -coordinator: exit %d, want 2 with the usage text; output:\n%s", code, out)
	}
}
