package disha_test

import (
	"flag"
	"strconv"
	"strings"
	"testing"

	disha "repro"
	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// The tests below drive the one-point flag path disha-sim and disha-bisect
// share (harness.PointFlags → a one-point harness.Spec → NewPointSimulator).
// They keep the names they had when the flags filled a SimSpec struct of
// their own, which this path replaced.

// bisectDefaults mirrors cmd/disha-bisect's adjustments to DefaultPointFlags.
func bisectDefaults() harness.PointFlags {
	p := harness.DefaultPointFlags()
	p.Spec.Topology, p.Load, p.Spec.MsgLen, p.Spec.VCs = "torus-8x8", 0.6, 16, 2
	return p
}

// TestSimSpecConfig pins the one flags-to-point resolver disha-sim and
// disha-bisect share: both binaries' defaults resolve to a simulator, and
// every bad name or out-of-range value is a one-line error that names the
// offending value — never a panic.
func TestSimSpecConfig(t *testing.T) {
	for name, flags := range map[string]harness.PointFlags{
		"disha-sim":    harness.DefaultPointFlags(),
		"disha-bisect": bisectDefaults(),
	} {
		point, err := flags.Point()
		if err != nil {
			t.Fatalf("%s defaults: %v", name, err)
		}
		if _, err := disha.NewPointSimulator(point); err != nil {
			t.Fatalf("%s defaults: NewPointSimulator: %v", name, err)
		}
	}

	type badCase struct {
		name string
		set  func(*harness.PointFlags)
		want string // must appear in the error
	}
	bad := []badCase{
		{"unknown alg", func(p *harness.PointFlags) { p.Alg = "no-such-alg" }, `"no-such-alg"`},
		{"unknown sel", func(p *harness.PointFlags) { p.Sel = "no-such-sel" }, `"no-such-sel"`},
		{"unknown traffic", func(p *harness.PointFlags) { p.Spec.Traffic = "no-such-traffic" }, `"no-such-traffic"`},
		{"unknown recovery", func(p *harness.PointFlags) { p.Recovery = "no-such-mode" }, `"no-such-mode"`},
		{"unknown topo", func(p *harness.PointFlags) { p.Spec.Topology = "nope-3" }, `"nope"`},
		// The shapes the retired -dims and -radix flags refused, by name.
		{"dims 0", func(p *harness.PointFlags) { p.Spec.Topology = "hypercube-0" }, "hypercube-0"},
		{"dims negative", func(p *harness.PointFlags) { p.Spec.Topology = "hypercube--1" }, "hypercube--1"},
		{"dims huge", func(p *harness.PointFlags) { p.Spec.Topology = "hypercube-1073741824" }, "hypercube-1073741824"},
		{"radix 1", func(p *harness.PointFlags) { p.Spec.Topology = "torus-1x1" }, "radix 1"},
		{"hotspot above 1", func(p *harness.PointFlags) { p.Spec.Traffic, p.HotspotFraction = "hotspot", 2 }, "fraction 2"},
		{"hotspot below 0", func(p *harness.PointFlags) { p.Spec.Traffic, p.HotspotFraction = "hotspot", -0.5 }, "fraction -0.5"},
		{"bit-reversal on 3x3", func(p *harness.PointFlags) { p.Spec.Traffic, p.Spec.Topology = "bit-reversal", "torus-3x3" }, "have 9"},
		// Admission (network.Admits) is Normalize's, before any simulator.
		{"dor on dragonfly", func(p *harness.PointFlags) { p.Alg, p.Spec.Topology = "dor", "dragonfly-4x2" }, "dor is not supported on dragonfly-4x2"},
		{"duato at 1 VC", func(p *harness.PointFlags) { p.Alg, p.Spec.VCs = "duato", 1 }, "duato needs >= 3 VCs on torus-16x16, have 1"},
	}
	for _, pattern := range []string{"transpose", "complement", "tornado"} {
		for _, topo := range []string{"fullmesh-16", "dragonfly-4x2"} {
			bad = append(bad, badCase{pattern + " on " + topo,
				func(p *harness.PointFlags) { p.Spec.Traffic, p.Spec.Topology = pattern, topo },
				pattern + " traffic needs cube coordinates, which " + topo})
		}
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			flags := harness.DefaultPointFlags()
			tc.set(&flags)
			_, err := flags.Point()
			if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("Point() error = %v, want one line containing %q", err, tc.want)
			}
		})
	}
}

// TestSimSpecFlags pins that Flags exposes every value under its flag name
// with the current value as the default, that a flag assignment — the
// mechanism disha-bisect's overrides use — writes through to the point Point
// resolves, and that the retired shape and misroute flags are gone.
func TestSimSpecFlags(t *testing.T) {
	flags := bisectDefaults()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	flags.Flags(fs)
	if got := fs.Lookup("topo").DefValue; got != "torus-8x8" {
		t.Errorf("-topo default %q, want the current value torus-8x8", got)
	}
	for _, retired := range []string{"radix", "dims", "mesh", "misroutes"} {
		if fs.Lookup(retired) != nil {
			t.Errorf("-%s is still a flag", retired)
		}
	}
	for k, v := range map[string]string{
		"alg": "disha-m3", "recovery": "off", "hotspot-fraction": "0.25", "seed": "18446744073709551615",
		"topo": "fattree-4", "traffic": "hotspot", "rx": "2", "throttle": "3",
	} {
		if err := fs.Set(k, v); err != nil {
			t.Fatalf("Set(%s, %s): %v", k, v, err)
		}
	}
	point, err := flags.Point()
	if err != nil {
		t.Fatal(err)
	}
	alg := point.Algs[0]
	if point.Topology != "fattree-4" || alg.Algorithm.Name() != "disha-m3" || alg.Recovery || alg.Timeout != 0 ||
		*point.HotspotFraction != 0.25 || point.Seed != 1<<64-1 || point.Rx != 2 || point.Throttle != 3 ||
		point.Loads[0] != 0.6 || point.MsgLen != 16 || point.VCs != 2 {
		t.Errorf("after Set: %+v, curve %+v", point, alg)
	}
	if got := point.Describe(); !strings.HasPrefix(got, "fattree-4 | disha-m3 | hotspot-25%-uniform | load 0.60 | 16-flit messages | 2 VCs x depth 2 | no recovery |") {
		t.Errorf("Describe() = %q", got)
	}
	if err := fs.Set("vcs", "many"); err == nil {
		t.Error("Set(vcs, many) succeeded")
	}
}

// TestSimSpecNames holds the flags to the tables that define the names: for
// -alg, -sel, -traffic and -recovery, every name the table lists appears in
// the generated help, every name the help lists resolves, and assigning any
// of them the way a disha-bisect -a/-b override does yields a point.
func TestSimSpecNames(t *testing.T) {
	for flagName, names := range map[string][]string{
		"alg":      append(routing.Names(), "disha-m3"),
		"sel":      routing.SelectionNames(),
		"traffic":  traffic.Names(),
		"recovery": append(router.RecoveryModeNames(), "off"),
	} {
		flags := harness.DefaultPointFlags()
		flags.Spec.Topology = "torus-4x4"
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		flags.Flags(fs)
		usage := fs.Lookup(flagName).Usage
		_, list, _ := strings.Cut(usage, ": ")
		for _, name := range strings.Split(list, ", ") {
			if !strings.Contains(name, " ") {
				names = append(names, name) // a bare word in the help is a name
			}
		}
		for _, name := range names {
			if name != "disha-m3" && !strings.Contains(usage, name) {
				t.Errorf("-%s help %q does not list %q", flagName, usage, name)
			}
			if err := fs.Set(flagName, name); err != nil {
				t.Fatalf("Set(%s, %s): %v", flagName, name, err)
			}
			if _, err := flags.Point(); err != nil {
				t.Errorf("-%s %s: %v", flagName, name, err)
			}
		}
	}
	// Short and canonical spellings are one point, down to its key.
	for short, canonical := range map[string]string{"turn": "turn-negative-first", "dally": "dally-aoki", "disha": "disha-m0"} {
		a, b := harness.DefaultPointFlags(), harness.DefaultPointFlags()
		a.Alg, b.Alg = short, canonical
		pa, errA := a.Point()
		pb, errB := b.Point()
		if errA != nil || errB != nil || pa.Algs[0].Algorithm.Name() != canonical ||
			pa.PointKey(canonical, 0.4, 0) != pb.PointKey(canonical, 0.4, 0) {
			t.Errorf("%s / %s resolve to %+v (%v) / %+v (%v)", short, canonical, pa, errA, pb, errB)
		}
	}
}

// TestTimeoutZero pins the one meaning of T_out = 0: to SimConfig it is "the
// paper's default, 8" (DisableRecovery is the off switch), and the flags
// refuse a typed -timeout 0 when recovery is armed rather than simulate
// T_out = 8 under a header that says 0. The header states the T_out a
// point simulates, and none when it arms no recovery.
func TestTimeoutZero(t *testing.T) {
	run := func(timeout disha.Cycle) (string, int64) {
		topo := disha.Torus(4, 4)
		sim, err := disha.NewSimulator(disha.SimConfig{
			Topo: topo, Algorithm: disha.DishaRouting(0), Pattern: disha.Uniform(topo),
			LoadRate: 0.9, MsgLen: 8, VCs: 1, Timeout: timeout, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(800)
		return sim.Fingerprint(), sim.Counters().TimeoutEvents
	}
	fp0, timeouts := run(0)
	if fp8, _ := run(8); fp0 != fp8 {
		t.Error("SimConfig.Timeout 0 does not simulate the default T_out = 8")
	}
	if timeouts == 0 {
		t.Error("SimConfig.Timeout 0 switched detection off; DisableRecovery is the off switch")
	}

	flags := harness.DefaultPointFlags()
	flags.Timeout = 0
	if _, err := flags.Point(); err == nil || !strings.Contains(err.Error(), "T_out must be ≥ 1") {
		t.Errorf("-alg disha -timeout 0: err = %v, want the T_out refusal", err)
	}
	// An avoidance algorithm ignores -timeout, and so does -recovery off.
	for _, tc := range []struct{ alg, recovery string }{{"duato", "sequential"}, {"disha", "off"}} {
		flags.Alg, flags.Recovery = tc.alg, tc.recovery
		if point, err := flags.Point(); err != nil || point.Algs[0].Recovery || !strings.Contains(point.Describe(), "| no recovery |") {
			t.Errorf("-alg %s -recovery %s -timeout 0: err = %v, want a point without recovery", tc.alg, tc.recovery, err)
		}
	}

	// The header's T_out is the one simulated: a point at -timeout 16 steps
	// in lockstep with SimConfig.Timeout 16, and says so.
	flags = harness.DefaultPointFlags()
	flags.Spec.Topology, flags.Load, flags.Spec.MsgLen, flags.Spec.VCs, flags.Spec.Seed, flags.Timeout = "torus-4x4", 0.9, 8, 1, 3, 16
	point, err := flags.Point()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := disha.NewPointSimulator(point)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(800)
	if fp16, _ := run(16); sim.Fingerprint() != fp16 || !strings.Contains(point.Describe(), "| sequential recovery, T_out 16 |") {
		t.Errorf("-timeout 16 header %q does not describe the T_out 16 it should simulate", point.Describe())
	}
}

// FuzzSimSpecConfig drives the one-point flag path with arbitrary names and
// numbers: Point returns an error on one line, or NewPointSimulator returns
// an error, or the pair yields a simulator that steps — never a panic or a
// runaway allocation. Its arguments, and so its seed corpus, are still the
// SimSpec struct's fields: the retired -radix/-dims/-mesh and -misroutes are
// spelled the way that replaced them (a -topo name, -alg disha-m<N>), and a
// shape those flags refused is skipped.
func FuzzSimSpecConfig(f *testing.F) {
	f.Add("", "disha", "random", "uniform", "sequential", 4, 2, false, 0, 0.05, 0.4, 8, 2, 2, 8, 0, 1, uint64(1))
	f.Add("fullmesh-16", "disha", "min-congestion", "hotspot", "abort-retry", 0, 0, false, 2, 0.1, 0.3, 8, 2, 1, 4, 2, 2, uint64(7))
	f.Add("dragonfly-4x2", "dor", "random", "tornado", "concurrent", 4, 3, true, -1, 2.0, -1.0, 0, 0, 0, 0, -1, 0, uint64(0))
	f.Add("", "duato-strict", "random", "bit-reversal", "sequential", 3, 1<<30, true, 1<<30, 0.5, 5.0, 1<<30, 1<<30, 1<<30, -8, 1<<30, 1<<30, uint64(1)<<63)
	// Every spelling the tables hold, so the fuzzer starts from both forms.
	for i, alg := range append(routing.Names(), "disha-m2") {
		sels, pats, modes := routing.SelectionNames(), traffic.Names(), router.RecoveryModeNames()
		f.Add("", alg, sels[i%len(sels)], pats[i%len(pats)], modes[i%len(modes)], 4, 2, i%2 == 0, 1, 0.05, 0.3, 8, 2, 2, 8, 0, 1, uint64(i))
	}
	f.Fuzz(func(t *testing.T, topo, alg, sel, pattern, recovery string, radix, dims int, mesh bool,
		misroutes int, hot, load float64, msgLen, vcs, depth, timeout, throttle, rx int, seed uint64) {
		if topo == "" {
			if dims < 1 || dims > 20 {
				return
			}
			kind := "torus-"
			if mesh {
				kind = "mesh-"
			}
			topo = kind + strings.Repeat(strconv.Itoa(radix)+"x", dims-1) + strconv.Itoa(radix)
		}
		if alg == "disha" {
			alg = "disha-m" + strconv.Itoa(misroutes)
		}
		flags := harness.PointFlags{
			Spec: harness.Spec{Topology: topo, Traffic: pattern, MsgLen: msgLen, VCs: vcs, BufferDepth: depth,
				Throttle: throttle, Rx: rx, Seed: seed},
			Alg: alg, Sel: sel, Recovery: recovery, Timeout: timeout, Load: load, HotspotFraction: hot,
		}
		point, err := flags.Point()
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("multi-line refusal: %v", err)
			}
			return
		}
		_ = point.Describe()
		if point.Topo().Nodes() > 256 || vcs > 8 || depth > 8 || msgLen > 64 || rx > 8 {
			return // cap the simulator's size, not the resolver's own guards
		}
		sim, err := disha.NewPointSimulator(point)
		if err != nil {
			return
		}
		sim.Run(8)
	})
}
