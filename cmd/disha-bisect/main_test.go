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
// through the same one-point harness.Spec flags as disha-sim. The retired
// shape and misroute flags are unknown flags and unknown override keys.
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
		{"-cycles 1500 -load 0.8 -a alg=disha-m0 -b alg=disha-m3", 1, "first divergent cycle: 12\n", false},
		{"-cycles 600 -granularity 200 -a vcs=4 -b vcs=4", 0, "identical: digests agree through cycle", false},
		{"-cycles 600 -a alg=duato,vcs=3 -b alg=duato,vcs=3", 0, "identical: digests agree through cycle", false},
		{"-cycles 600 -a topo=mesh-8x8", 1, "side A: mesh-8x8 | disha-m0 | uniform | load 0.60 | 16-flit messages | 2 VCs x depth 2 | sequential recovery, T_out 8 | random selection | seed 1\n", false},
		// An override takes every spelling the flag takes; short and
		// canonical names are one function.
		{"-cycles 600 -a alg=turn,sel=min-congestion,traffic=neighbor -b alg=turn-negative-first,sel=min-congestion,traffic=neighbor",
			0, "identical: digests agree through cycle", false},
		{"-cycles 600 -a alg=disha,recovery=abort-retry -b alg=disha-m0,recovery=abort-retry", 0, "identical: digests agree through cycle", false},
		// Recovery off is a side of its own: nothing is detected, so the
		// digests split once a header would have timed out.
		{"-cycles 600 -a recovery=off", 1, "side A: torus-8x8 | disha-m0 | uniform | load 0.60 | 16-flit messages | 2 VCs x depth 2 | no recovery |", false},
		{"-a alg=disha,timeout=0", 2, "T_out must be ≥ 1", true},
		{"-a bogus=1", 2, `unknown override key "bogus"`, true},
		{"-a cycles=5", 2, `unknown override key "cycles"`, true},
		{"-a vcs", 2, "is not key=value", true},
		{"-a vcs=many", 2, `override "vcs=many"`, true},
		{"-b alg=nope", 2, `unknown algorithm "nope"`, true},
		{"-a misroutes=2", 2, `unknown override key "misroutes"`, true},
		{"-b radix=4", 2, `unknown override key "radix"`, true},
		{"-a mesh=true", 2, `unknown override key "mesh"`, true},
		{"-a dims=3", 2, `unknown override key "dims"`, true},
		{"-radix 8", 2, "flag provided but not defined: -radix", false},
		{"-dims 2", 2, "flag provided but not defined: -dims", false},
		{"-mesh", 2, "flag provided but not defined: -mesh", false},
		{"-misroutes 3", 2, "flag provided but not defined: -misroutes", false},
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
