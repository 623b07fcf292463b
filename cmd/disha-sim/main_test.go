package main

import (
	"flag"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/snapshot"
)

// TestDocumentedFlags builds disha-sim and disha-bisect and reads the flags
// each defines from its -h. Every command line the docs give either binary
// must use only flags it defines, and every disha-bisect -a/-b override key
// must be a simulation flag; a retired flag left in a doc fails here.
func TestDocumentedFlags(t *testing.T) {
	dir := t.TempDir()
	defined := map[string]map[string]bool{}
	flagLine := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	for _, name := range []string{"disha-sim", "disha-bisect"} {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "../"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		help, _ := exec.Command(bin, "-h").CombinedOutput()
		defined[name] = map[string]bool{"h": true, "help": true}
		for _, m := range flagLine.FindAllStringSubmatch(string(help), -1) {
			defined[name][m[1]] = true
		}
		if !defined[name]["seed"] || !defined[name]["version"] {
			t.Fatalf("%s -h lists no -seed or -version:\n%s", name, help)
		}
	}
	simulation := flag.NewFlagSet("override", flag.ContinueOnError)
	points := harness.DefaultPointFlags()
	points.Flags(simulation)

	flagName := regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	assignment := regexp.MustCompile(`(\w+)="([^"]*)"`)
	invocations := 0
	for _, file := range []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "CHAOS.md",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		vars := map[string]string{}
		for _, m := range assignment.FindAllStringSubmatch(string(data), -1) {
			vars[m[1]] = m[2]
		}
		lines := strings.Split(string(data), "\n")
		for n := 0; n < len(lines); n++ {
			at, line := n+1, lines[n]
			for strings.HasSuffix(line, "\\") && n+1 < len(lines) { // shell line continuations
				n++
				line = strings.TrimSuffix(line, "\\") + " " + lines[n]
			}
			words := strings.Fields(line)
			if len(words) > 1 && words[0] == "go" && words[1] != "run" {
				continue // go build / go test name packages, not invocations
			}
			for i, w := range words {
				bin := path.Base(strings.TrimLeft(w, "`("))
				if defined[bin] == nil || (i > 0 && words[i-1] == "-o") {
					continue
				}
				invocations++
				var args []string
				for _, a := range words[i+1:] {
					if v, ok := vars[strings.Trim(a, "${}")]; ok && strings.HasPrefix(a, "$") {
						args = append(args, strings.Fields(v)...)
						continue
					}
					if strings.ContainsAny(a[:1], "|&;<>#)") || strings.HasPrefix(a, "2>") {
						break
					}
					args = append(args, strings.Trim(a, "`\"'"))
					if strings.Contains(a, "`") {
						break // the end of an inline code span
					}
				}
				for j, a := range args {
					for _, part := range strings.Split(a, "/") { // "-checkpoint-every/-restore"
						m := flagName.FindStringSubmatch(part)
						if m == nil {
							continue
						}
						if !defined[bin][m[1]] {
							t.Errorf("%s:%d: %s has no flag -%s: %s", file, at, bin, m[1], strings.TrimSpace(line))
						}
						if bin == "disha-bisect" && (m[1] == "a" || m[1] == "b") && j+1 < len(args) {
							for _, kv := range strings.Split(args[j+1], ",") {
								if key, _, _ := strings.Cut(kv, "="); simulation.Lookup(key) == nil {
									t.Errorf("%s:%d: -%s override key %q is not a simulation flag: %s", file, at, m[1], key, strings.TrimSpace(line))
								}
							}
						}
					}
				}
			}
		}
	}
	if invocations < 30 {
		t.Errorf("found %d disha-sim/disha-bisect invocations in the docs; the scan is broken", invocations)
	}
}

// TestKernelFlags builds the binary and pins the kernel's command-line
// surface: there is none — the retired scan-path and scheduler flags are
// unknown flags, and so are the retired shape and misroute flags (-topo and
// -alg disha-m<N> name those). It also pins what the simulation flags mean:
// four command lines must reproduce the fingerprints recorded before the
// flags moved into a one-point harness.Spec, spelled the way that replaced
// -radix/-dims/-mesh/-misroutes, and a flag set that does not describe a
// simulation — or a run of one: negative -cycles, -drain, -checkpoint-every
// — exits 2 with one line.
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
		return sim(append(extra, "-topo", "torus-8x8", "-vcs", "1", "-load", "0.9",
			"-msglen", "8", "-cycles", "2000", "-fingerprint")...)
	}
	for _, retired := range []string{"-reference-scan", "-active-set=false", "-radix=8", "-dims=2", "-mesh", "-misroutes=2"} {
		if out, code := run(retired); code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("%s: exit %d, want 2 as an unknown flag; output:\n%s", retired, code, out)
		}
	}

	for _, pin := range []struct{ args, want string }{
		{"-topo torus-8x8 -vcs 1 -load 0.9 -msglen 8 -cycles 2000",
			"b1b1d4bb4807baa91e407f0123a1a46305ccf75d21aebe66415d494421c22c76"},
		{"-topo mesh-4x4x4 -alg duato -traffic tornado -cycles 1500",
			"f563da66724e07571b5383bc70982f9a911ec0c1fddaf93810f62764980526c8"},
		{"-topo dragonfly-4x2 -load 0.3 -cycles 1500",
			"47c78766750e4570af8a7808f13aee9a7ac893b4b2dd4496749bbb58af88421e"},
		{"-topo fullmesh-16 -traffic hotspot -hotspot-fraction 0.1 -alg disha-m2 -sel min-congestion -recovery abort-retry -vcs 2 -cycles 1500 -seed 7",
			"a5b6d33d94ae5d8754f0efc109e02de8e5570ed29dcdf30000455a85b79aa312"},
	} {
		out, code := sim(append(strings.Fields(pin.args), "-fingerprint")...)
		if code != 0 || !strings.Contains(out, "fingerprint:       "+pin.want+"\n") {
			t.Errorf("disha-sim %s: exit %d, want fingerprint %s; output:\n%s", pin.args, code, pin.want, out)
		}
	}
	// A name is accepted in either spelling (README, "Names"), and the header
	// prints the canonical one.
	for _, alg := range []string{"turn", "turn-negative-first"} {
		if out, code := sim("-topo", "torus-4x4", "-cycles", "200", "-alg", alg); code != 0 || !strings.HasPrefix(out, "torus-4x4 | turn-negative-first | ") {
			t.Errorf("disha-sim -alg %s: exit %d; output:\n%s", alg, code, out)
		}
	}
	// Disha with recovery off: the full-mesh figure's minimal-vcfree curve,
	// which the flags could not name while recovery followed the algorithm.
	if out, code := sim("-alg", "disha-m0", "-recovery", "off", "-topo", "fullmesh-8", "-vcs", "1", "-cycles", "2000"); code != 0 ||
		!strings.HasPrefix(out, "fullmesh-8 | disha-m0 | uniform | load 0.40 | 32-flit messages | 1 VCs x depth 2 | no recovery |") ||
		!strings.Contains(out, "\ntimeout events:    0\n") || strings.Contains(out, "\npackets delivered: 0\n") {
		t.Errorf("disha-sim -recovery off on fullmesh-8: exit %d, want a run without timeouts; output:\n%s", code, out)
	}
	// Concurrent recovery runs on a dragonfly, whose recovery order steps
	// between unlinked routers: its lanes are built from the links, not the
	// order, which it once was refused for.
	if out, code := sim("-topo", "dragonfly-4x2", "-recovery", "concurrent", "-vcs", "1", "-load", "0.9", "-msglen", "8", "-cycles", "2000"); code != 0 ||
		!strings.Contains(out, "| concurrent recovery, T_out 8 |") || strings.Contains(out, "\nrecoveries:        0\n") || strings.Contains(out, "\npackets delivered: 0\n") {
		t.Errorf("disha-sim -topo dragonfly-4x2 -recovery concurrent: exit %d, want a run that recovers and delivers; output:\n%s", code, out)
	}
	// A scheduled event the network cannot take is skipped, and the run
	// carries on: with link 0-1 of a 2x2 mesh cut, cutting link 0-2 would
	// isolate corner 0.
	script := filepath.Join(t.TempDir(), "kills.json")
	if err := os.WriteFile(script, []byte(`{"events":[{"cycle":50,"kind":"kill-link","node":0,"port":0},{"cycle":100,"kind":"kill-link","node":0,"port":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := sim("-topo", "mesh-2x2", "-cycles", "200", "-chaos-script", script); code != 0 ||
		!strings.Contains(out, "@100 kill-link node=0 port=2             skipped") ||
		!strings.Contains(out, "2 events (1 applied, 1 skipped") || strings.Contains(out, "goroutine") {
		t.Errorf("disha-sim with a disconnecting kill on mesh-2x2: exit %d; output:\n%s", code, out)
	}
	// A checkpoint of another format version is refused by its version
	// with one line, exit 1: the network's fixture payload sealed as
	// version 2, restored under the fixture's own configuration.
	fixture, err := os.ReadFile("../../internal/network/testdata/snapshot_v3.bin")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := snapshot.Open(fixture, "DISHANET", 3)
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(t.TempDir(), "v2.ckpt")
	if err := os.WriteFile(v2, snapshot.Seal("DISHANET", 2, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	const refused = "disha-sim: snapshot: format version 2 not supported (this build reads version 3)\n"
	if out, code := sim("-topo", "torus-4x4", "-alg", "disha-m0", "-load", "0.6", "-msglen", "8", "-seed", "2026",
		"-vcs", "2", "-depth", "1", "-timeout", "4", "-cycles", "300", "-restore", "-checkpoint", v2); code != 1 || out != refused {
		t.Errorf("disha-sim -restore of a version-2 file: exit %d, want 1 with the line %q; output:\n%s", code, refused, out)
	}
	for _, bad := range []struct{ args, want string }{
		{"-alg nope", `unknown algorithm "nope"`},
		{"-traffic hotspot -hotspot-fraction 1.5", "hot-spot fraction 1.5 outside [0, 1]"},
		{"-topo hypercube-1073741824", "hypercube-1073741824: dimensions outside [1, 20]"},
		{"-topo fattree-4 -traffic transpose", "transpose traffic needs cube coordinates"},
		{"-topo dragonfly-4x2 -alg dor", "dor is not supported on dragonfly-4x2"},
		{"-timeout 0", "T_out must be ≥ 1"},
		{"-alg disha-m3 -timeout 0", "T_out must be ≥ 1"},
		{"-cycles -5", "-cycles -5: a cycle count cannot be negative"},
		{"-checkpoint-every -3", "-checkpoint-every -3: a cycle count cannot be negative"},
		{"-drain -1", "-drain -1: a cycle count cannot be negative"},
		{"-depth 256", "router: buffer depth 256 outside [1,255]"},
		{"-vcs 128", "router: VCs 128 outside [1,127]"},
	} {
		out, code := sim(strings.Fields(bad.args)...)
		if code != 2 || !strings.Contains(out, bad.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("disha-sim %s: exit %d, want 2 with one line containing %q; output:\n%s", bad.args, code, bad.want, out)
		}
	}
}
