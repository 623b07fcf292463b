package disha_test

import (
	"flag"
	"strings"
	"testing"

	disha "repro"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// bisectDefaults mirrors cmd/disha-bisect's adjustments to DefaultSimSpec.
func bisectDefaults() disha.SimSpec {
	s := disha.DefaultSimSpec()
	s.Radix, s.Load, s.MsgLen, s.VCs = 8, 0.6, 16, 2
	return s
}

// TestSimSpecConfig pins the one flags-to-SimConfig resolver disha-sim and
// disha-bisect share: both binaries' defaults resolve to a simulator, and
// every bad name or out-of-range value is an error that names the offending
// value — never a panic.
func TestSimSpecConfig(t *testing.T) {
	for name, spec := range map[string]disha.SimSpec{
		"disha-sim":    disha.DefaultSimSpec(),
		"disha-bisect": bisectDefaults(),
	} {
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("%s defaults: %v", name, err)
		}
		if _, err := disha.NewSimulator(cfg); err != nil {
			t.Fatalf("%s defaults: NewSimulator: %v", name, err)
		}
	}

	type badCase struct {
		name string
		set  func(*disha.SimSpec)
		want string // must appear in the error
	}
	bad := []badCase{
		{"unknown alg", func(s *disha.SimSpec) { s.Alg = "no-such-alg" }, `"no-such-alg"`},
		{"unknown sel", func(s *disha.SimSpec) { s.Sel = "no-such-sel" }, `"no-such-sel"`},
		{"unknown traffic", func(s *disha.SimSpec) { s.Traffic = "no-such-traffic" }, `"no-such-traffic"`},
		{"unknown recovery", func(s *disha.SimSpec) { s.Recovery = "no-such-mode" }, `"no-such-mode"`},
		{"unknown topo", func(s *disha.SimSpec) { s.Topo = "nope-3" }, `"nope"`},
		{"dims 0", func(s *disha.SimSpec) { s.Dims = 0 }, "dims 0"},
		{"dims negative", func(s *disha.SimSpec) { s.Dims = -1 }, "dims -1"},
		{"dims huge", func(s *disha.SimSpec) { s.Dims = 1 << 30 }, "dims 1073741824"},
		{"radix 1", func(s *disha.SimSpec) { s.Radix = 1 }, "radix 1"},
		{"hotspot above 1", func(s *disha.SimSpec) { s.Traffic, s.HotspotFraction = "hotspot", 2 }, "fraction 2"},
		{"hotspot below 0", func(s *disha.SimSpec) { s.Traffic, s.HotspotFraction = "hotspot", -0.5 }, "fraction -0.5"},
		{"bit-reversal on 3x3", func(s *disha.SimSpec) { s.Traffic, s.Radix = "bit-reversal", 3 }, "have 9"},
	}
	for _, pattern := range []string{"transpose", "complement", "tornado"} {
		for _, topo := range []string{"fullmesh-16", "dragonfly-4x2"} {
			bad = append(bad, badCase{pattern + " on " + topo,
				func(s *disha.SimSpec) { s.Traffic, s.Topo = pattern, topo },
				pattern + " traffic needs cube coordinates, which " + topo})
		}
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			spec := disha.DefaultSimSpec()
			tc.set(&spec)
			_, err := spec.Config()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Config() error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestSimSpecFlags pins that Flags exposes every field under its flag name
// with the spec's current value as the default, and that a flag assignment
// writes through to the spec — the mechanism disha-bisect's overrides use.
func TestSimSpecFlags(t *testing.T) {
	spec := bisectDefaults()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	spec.Flags(fs)
	if got := fs.Lookup("radix").DefValue; got != "8" {
		t.Errorf("-radix default %q, want the spec's current value 8", got)
	}
	for k, v := range map[string]string{"misroutes": "3", "mesh": "true", "hotspot-fraction": "0.25", "seed": "18446744073709551615", "topo": "fattree-4"} {
		if err := fs.Set(k, v); err != nil {
			t.Fatalf("Set(%s, %s): %v", k, v, err)
		}
	}
	want := bisectDefaults()
	want.Misroutes, want.Mesh, want.HotspotFraction, want.Seed, want.Topo = 3, true, 0.25, 1<<64-1, "fattree-4"
	if spec != want {
		t.Errorf("after Set: %+v\nwant      %+v", spec, want)
	}
	if !strings.Contains(spec.String(), "fattree-4 | disha(M=3)") {
		t.Errorf("String() = %q", spec.String())
	}
	if err := fs.Set("misroutes", "many"); err == nil {
		t.Error("Set(misroutes, many) succeeded")
	}
}

// TestSimSpecNames holds the flags to the tables that define the names: for
// -alg, -sel, -traffic and -recovery, every name the table lists appears in
// the generated help, every name the help lists resolves, and assigning any
// of them the way a disha-bisect -a/-b override does yields a Config.
func TestSimSpecNames(t *testing.T) {
	for flagName, names := range map[string][]string{
		"alg":      append(routing.Names(), "disha-m3"),
		"sel":      routing.SelectionNames(),
		"traffic":  traffic.Names(),
		"recovery": router.RecoveryModeNames(),
	} {
		spec := disha.DefaultSimSpec()
		spec.Radix = 4
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		spec.Flags(fs)
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
			if _, err := spec.Config(); err != nil {
				t.Errorf("-%s %s: %v", flagName, name, err)
			}
		}
	}
	// Short and canonical spellings are one algorithm.
	for short, canonical := range map[string]string{"turn": "turn-negative-first", "dally": "dally-aoki", "disha": "disha-m0"} {
		a, b := disha.DefaultSimSpec(), disha.DefaultSimSpec()
		a.Alg, b.Alg = short, canonical
		ca, errA := a.Config()
		cb, errB := b.Config()
		if errA != nil || errB != nil || ca.Algorithm.Name() != canonical || cb.Algorithm.Name() != canonical ||
			ca.DisableRecovery != cb.DisableRecovery {
			t.Errorf("%s / %s resolve to %v (%v) / %v (%v)", short, canonical, ca.Algorithm, errA, cb.Algorithm, errB)
		}
	}
}

// TestTimeoutZero pins the one meaning of T_out = 0: to SimConfig it is "the
// paper's default, 8" (DisableRecovery is the off switch), and SimSpec
// refuses a typed -timeout 0 for a recovery algorithm rather than simulate
// T_out = 8 under a header that says 0.
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

	spec := disha.DefaultSimSpec()
	spec.Timeout = 0
	if _, err := spec.Config(); err == nil || !strings.Contains(err.Error(), "T_out must be ≥ 1") {
		t.Errorf("-alg disha -timeout 0: err = %v, want the T_out refusal", err)
	}
	spec.Alg = "duato"
	if cfg, err := spec.Config(); err != nil || !cfg.DisableRecovery {
		t.Errorf("-alg duato -timeout 0: err = %v, DisableRecovery = %v; an avoidance algorithm ignores -timeout", err, cfg.DisableRecovery)
	}
}

// FuzzSimSpecConfig drives the resolver with arbitrary names and numbers:
// Config returns an error, or NewSimulator returns an error, or the pair
// yields a simulator that steps — never a panic or a runaway allocation.
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
	f.Fuzz(func(t *testing.T, topo, alg, sel, traffic, recovery string, radix, dims int, mesh bool,
		misroutes int, hot, load float64, msgLen, vcs, depth, timeout, throttle, rx int, seed uint64) {
		spec := disha.SimSpec{
			Radix: radix, Dims: dims, Mesh: mesh, Topo: topo,
			Alg: alg, Misroutes: misroutes, Sel: sel,
			Traffic: traffic, HotspotFraction: hot,
			Load: load, MsgLen: msgLen, VCs: vcs, Depth: depth, Timeout: timeout,
			Recovery: recovery, Throttle: throttle, Rx: rx, Seed: seed,
		}
		_ = spec.String()
		cfg, err := spec.Config()
		if err != nil {
			return
		}
		if cfg.Topo.Nodes() > 256 || vcs > 8 || depth > 8 || msgLen > 64 || rx > 8 {
			return // cap the simulator's size, not the resolver's own guards
		}
		sim, err := disha.NewSimulator(cfg)
		if err != nil {
			return
		}
		sim.Run(8)
	})
}
