package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelFlags builds the binary and pins the kernel's command-line
// surface: there is none — the retired scan-path and scheduler flags are
// unknown flags. It also pins what the simulation flags mean: four command
// lines must reproduce the fingerprints recorded before the flags moved into
// disha.SimSpec, and a flag set that does not describe a simulation — or a
// run of one: negative -cycles, -drain, -checkpoint-every — exits 2 with one
// line.
func TestKernelFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "disha-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build disha-sim: %v\n%s", err, out)
	}
	// sim runs the binary and returns the combined output and exit code.
	sim := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("disha-sim %v did not run", args)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
	// run executes one deadlock-prone point with extra flags in front.
	run := func(extra ...string) (string, int) {
		t.Helper()
		return sim(append(extra, "-radix", "8", "-vcs", "1", "-load", "0.9",
			"-msglen", "8", "-cycles", "2000", "-fingerprint")...)
	}
	for _, retired := range []string{"-reference-scan", "-active-set=false"} {
		if out, code := run(retired); code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("%s: exit %d, want 2 as an unknown flag; output:\n%s", retired, code, out)
		}
	}

	for _, pin := range []struct{ args, want string }{
		{"-radix 8 -vcs 1 -load 0.9 -msglen 8 -cycles 2000",
			"d16ffe0e9b147cd8841d9d14736fa205552bd09e49f5311c15301d4646fcb428"},
		{"-mesh -radix 4 -dims 3 -alg duato -traffic tornado -cycles 1500",
			"94dc8a1c5d4b313bf448def136ecacd970b55c30c1fb1e01c9e541162a0ff65e"},
		{"-topo dragonfly-4x2 -load 0.3 -cycles 1500",
			"6c97daa55ccb6a5995f46c8af38262aa579f5df13fb5672c26cb042a1353afd7"},
		{"-topo fullmesh-16 -traffic hotspot -hotspot-fraction 0.1 -alg disha -misroutes 2 -sel min-congestion -recovery abort-retry -vcs 2 -cycles 1500 -seed 7",
			"871a1ffac14598058445178d2fc1bc284323b4b7aaf8f58eeed52bbae86da2ad"},
	} {
		out, code := sim(append(strings.Fields(pin.args), "-fingerprint")...)
		if code != 0 || !strings.Contains(out, "fingerprint:       "+pin.want+"\n") {
			t.Errorf("disha-sim %s: exit %d, want fingerprint %s; output:\n%s", pin.args, code, pin.want, out)
		}
	}
	// A name is accepted in either spelling (README, "Names"), and the header
	// prints the canonical one.
	for _, alg := range []string{"turn", "turn-negative-first"} {
		if out, code := sim("-radix", "4", "-cycles", "200", "-alg", alg); code != 0 || !strings.HasPrefix(out, "torus-4x4 | turn-negative-first | ") {
			t.Errorf("disha-sim -alg %s: exit %d; output:\n%s", alg, code, out)
		}
	}
	// A scheduled swap to an algorithm the topology cannot run is skipped,
	// not installed (it used to panic inside dor.Route on the next Step).
	script := filepath.Join(t.TempDir(), "swap.json")
	if err := os.WriteFile(script, []byte(`{"events":[{"cycle":50,"kind":"swap-algorithm","alg":"dor"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := sim("-topo", "fullmesh-8", "-cycles", "300", "-chaos-script", script); code != 0 ||
		!strings.Contains(out, "skipped") || !strings.Contains(out, "1 events (0 applied, 1 skipped") || strings.Contains(out, "goroutine") {
		t.Errorf("disha-sim swap-to-dor on fullmesh-8: exit %d; output:\n%s", code, out)
	}
	for _, bad := range []struct{ args, want string }{
		{"-alg nope", `unknown algorithm "nope"`},
		{"-traffic hotspot -hotspot-fraction 1.5", "hot-spot fraction 1.5 outside [0, 1]"},
		{"-dims -1", "dims -1 outside"},
		{"-topo fattree-4 -traffic transpose", "transpose traffic needs cube coordinates"},
		{"-topo dragonfly-4x2 -alg dor", "dor is not supported on dragonfly-4x2"},
		// The recovery order steps between unlinked routers, so the concurrent
		// lane table derived from it cannot deliver every pair.
		{"-topo dragonfly-4x2 -recovery concurrent", "Deadlock Buffer lane fails Lemma 1"},
		{"-timeout 0", "T_out must be ≥ 1"},
		{"-alg disha-m3 -timeout 0", "T_out must be ≥ 1"},
		{"-cycles -5", "-cycles -5: a cycle count cannot be negative"},
		{"-checkpoint-every -3", "-checkpoint-every -3: a cycle count cannot be negative"},
		{"-drain -1", "-drain -1: a cycle count cannot be negative"},
	} {
		out, code := sim(strings.Fields(bad.args)...)
		if code != 2 || !strings.Contains(out, bad.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("disha-sim %s: exit %d, want 2 with one line containing %q; output:\n%s", bad.args, code, bad.want, out)
		}
	}
}
