package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBisect builds the binary and pins its contract: exit 0 with
// "identical" when the sides agree (including under equal overrides),
// exit 1 with the first divergent cycle when they do not, and exit 2 with a
// one-line message — never a goroutine trace — on any bad input, resolved
// through the same disha.SimSpec as disha-sim.
func TestBisect(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "disha-bisect")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build disha-bisect: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args    string
		code    int
		want    string // must appear in the combined output
		oneLine bool
	}{
		{"-cycles 600", 0, "identical: digests agree through cycle 600", false},
		{"-cycles 1500 -load 0.8 -a misroutes=0 -b misroutes=3", 1, "first divergent cycle: 12\n", false},
		{"-cycles 600 -granularity 200 -a vcs=4 -b vcs=4", 0, "identical: digests agree through cycle", false},
		{"-cycles 600 -a alg=duato,vcs=3 -b alg=duato,vcs=3", 0, "identical: digests agree through cycle", false},
		{"-cycles 600 -a mesh=true", 1, "side A: mesh 8-ary 2-cube", false},
		// An override takes every spelling the flag takes; short and
		// canonical names are one function.
		{"-cycles 600 -a alg=turn,sel=min-congestion,traffic=neighbor -b alg=turn-negative-first,sel=min-congestion,traffic=neighbor",
			0, "identical: digests agree through cycle", false},
		{"-cycles 600 -a alg=disha,misroutes=3,recovery=abort-retry -b alg=disha-m3,recovery=abort-retry", 0, "identical: digests agree through cycle", false},
		{"-a alg=disha,timeout=0", 2, "T_out must be ≥ 1", true},
		{"-a bogus=1", 2, `unknown override key "bogus"`, true},
		{"-a cycles=5", 2, `unknown override key "cycles"`, true},
		{"-a misroutes", 2, "is not key=value", true},
		{"-a misroutes=many", 2, `override "misroutes=many"`, true},
		{"-b alg=nope", 2, `unknown algorithm "nope"`, true},
		{"-granularity 0", 2, "-granularity must be at least 1", true},
		{"-traffic hotspot -hotspot-fraction 2 -cycles 10", 2,
			"disha-bisect: traffic: hot-spot fraction 2 outside [0, 1]", true},
	} {
		cmd := exec.Command(bin, strings.Fields(tc.args)...)
		raw, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("disha-bisect %s did not run", tc.args)
		}
		out := string(raw)
		if code := cmd.ProcessState.ExitCode(); code != tc.code || !strings.Contains(out, tc.want) ||
			strings.Contains(out, "goroutine") || (tc.oneLine && strings.Count(out, "\n") != 1) {
			t.Errorf("disha-bisect %s: exit %d, want %d with output containing %q; output:\n%s",
				tc.args, code, tc.code, tc.want, out)
		}
	}
}
