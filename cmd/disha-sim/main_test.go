package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelFlags builds the binary and pins the kernel's command-line
// surface: -shards is the one kernel knob, it never changes results, a
// negative value is refused before anything is built, and the retired
// scan-path and scheduler flags are gone.
func TestKernelFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "disha-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build disha-sim: %v\n%s", err, out)
	}
	// run executes one deadlock-prone point with extra flags in front and
	// returns the combined output and the exit code.
	run := func(extra ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, append(extra, "-radix", "8", "-vcs", "1", "-load", "0.9",
			"-msglen", "8", "-cycles", "2000", "-fingerprint")...)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("disha-sim %v did not run", extra)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
	fingerprint := func(extra ...string) string {
		t.Helper()
		out, code := run(extra...)
		i := strings.Index(out, "fingerprint:")
		if code != 0 || i < 0 {
			t.Fatalf("disha-sim %v: exit %d, no fingerprint line:\n%s", extra, code, out)
		}
		return strings.TrimSpace(out[i:])
	}

	if serial, sharded := fingerprint(), fingerprint("-shards", "4"); sharded != serial {
		t.Errorf("-shards 4 changed the result:\n got %s\nwant %s", sharded, serial)
	}
	out, code := run("-shards", "-1")
	if code != 2 || !strings.Contains(out, "negative kernel shards -1") || strings.Count(out, "\n") != 1 {
		t.Errorf("-shards -1: exit %d, want 2 with a one-line negative-kernel-shards message; output:\n%s", code, out)
	}
	for _, retired := range []string{"-reference-scan", "-active-set=false"} {
		if out, code := run(retired); code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("%s: exit %d, want 2 as an unknown flag; output:\n%s", retired, code, out)
		}
	}
}
