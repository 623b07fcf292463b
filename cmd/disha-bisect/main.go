// Command disha-bisect finds the first cycle at which two simulator
// configurations diverge. It runs both configurations in lockstep at a
// coarse granularity, comparing full-state SHA-256 digests at each
// boundary and snapshotting the last state the two sides agreed on; when
// a boundary digest differs, it restores both sides from the last-equal
// snapshot and single-steps to isolate the exact divergent cycle.
//
// The two sides share the base flags; -a and -b apply comma-separated
// key=value overrides on top, where a key is any simulation flag, by name
// (the flags disha-sim shares: -topo, -alg, -load, -vcs, ...):
//
//	# when does misrouting first change global state?
//	disha-bisect -radix 8 -load 0.7 -cycles 5000 -a misroutes=0 -b misroutes=3
//
//	# recovery-mode comparison at a fine granularity
//	disha-bisect -load 0.9 -a recovery=sequential -b recovery=abort-retry -granularity 64
//
// Exit status: 0 if the runs are digest-identical for the full -cycles
// window, 1 if they diverge (the first divergent cycle is printed), 2 on
// any error (unknown flag, override key or name, out-of-range value, a
// configuration the simulator rejects, snapshot or chaos-script I/O).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	disha "repro"
	"repro/internal/chaos"
	"repro/internal/telemetry"
)

func main() {
	// The search defaults to a smaller, busier network than disha-sim's so a
	// divergence shows up within few cycles.
	base := disha.DefaultSimSpec()
	base.Radix, base.Load, base.MsgLen, base.VCs = 8, 0.6, 16, 2
	base.Flags(flag.CommandLine)
	var (
		cycles      = flag.Int("cycles", 10000, "cycles to search")
		granularity = flag.Int("granularity", 256, "coarse comparison stride in cycles")
		overridesA  = flag.String("a", "", "side A overrides, e.g. alg=disha,misroutes=0")
		overridesB  = flag.String("b", "", "side B overrides, e.g. alg=disha,misroutes=3")
		chaosScript = flag.String("chaos-script", "", "arm this JSON chaos event-schedule on BOTH sides (replayed deterministically; see CHAOS.md)")
		version     = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}

	if *granularity < 1 {
		fail(fmt.Errorf("-granularity must be at least 1"))
	}

	cfgA, err := applyOverrides(base, *overridesA)
	fail(err)
	cfgB, err := applyOverrides(base, *overridesB)
	fail(err)

	// A chaos schedule is armed identically on both sides — and re-armed
	// after every restore, since checkpoints deliberately do not carry the
	// pending schedule (already-applied events replay from the snapshot's
	// reconfiguration log; arming drops them as stale).
	var chaosEvents []disha.ReconfigEvent
	if *chaosScript != "" {
		sched, err := chaos.Load(*chaosScript)
		fail(err)
		chaosEvents = sched.Events
	}
	arm := func(s *disha.Simulator) {
		if chaosEvents != nil {
			fail(s.ScheduleReconfig(chaosEvents))
		}
	}

	simA, err := buildSim(cfgA)
	fail(err)
	simB, err := buildSim(cfgB)
	fail(err)
	arm(simA)
	arm(simB)

	fmt.Printf("side A: %s\nside B: %s\n", cfgA, cfgB)

	if simA.Fingerprint() != simB.Fingerprint() {
		fmt.Println("divergence: cycle 0 (the configs already produce different initial state digests)")
		os.Exit(1)
	}

	// Coarse phase: march both sides in -granularity strides, keeping a
	// snapshot of the last boundary where the digests agreed.
	var lastEqualA, lastEqualB bytes.Buffer
	lastEqual := 0
	fail(simA.Snapshot(&lastEqualA))
	fail(simB.Snapshot(&lastEqualB))
	diverged := false
	for int(simA.Now()) < *cycles {
		step := *granularity
		if rest := *cycles - int(simA.Now()); rest < step {
			step = rest
		}
		simA.Run(step)
		simB.Run(step)
		if simA.Fingerprint() != simB.Fingerprint() {
			diverged = true
			break
		}
		lastEqual = int(simA.Now())
		lastEqualA.Reset()
		lastEqualB.Reset()
		fail(simA.Snapshot(&lastEqualA))
		fail(simB.Snapshot(&lastEqualB))
	}
	if !diverged {
		fmt.Printf("identical: digests agree through cycle %d\n", *cycles)
		return
	}
	fmt.Printf("coarse divergence inside (%d, %d]; restoring cycle-%d snapshots\n",
		lastEqual, int(simA.Now()), lastEqual)

	// Fine phase: rebuild both sides fresh, restore the last-equal
	// snapshots, and single-step to the first cycle whose digests differ.
	simA2, err := buildSim(cfgA)
	fail(err)
	simB2, err := buildSim(cfgB)
	fail(err)
	fail(simA2.Restore(bytes.NewReader(lastEqualA.Bytes())))
	fail(simB2.Restore(bytes.NewReader(lastEqualB.Bytes())))
	arm(simA2)
	arm(simB2)

	for {
		simA2.Run(1)
		simB2.Run(1)
		da, db := simA2.Fingerprint(), simB2.Fingerprint()
		if da != db {
			fmt.Printf("first divergent cycle: %d\n", int(simA2.Now()))
			fmt.Printf("  A %s\n  B %s\n", da, db)
			os.Exit(1)
		}
		if int(simA2.Now()) >= *cycles {
			// Should not happen: the coarse phase saw a divergence here.
			fail(fmt.Errorf("fine phase found no divergence before cycle %d", *cycles))
		}
	}
}

// applyOverrides parses "k=v,k=v" and sets each key, as the simulation flag
// of that name, on a copy of base.
func applyOverrides(base disha.SimSpec, s string) (disha.SimSpec, error) {
	side := base
	if s == "" {
		return side, nil
	}
	fs := flag.NewFlagSet("override", flag.ContinueOnError)
	side.Flags(fs)
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return side, fmt.Errorf("override %q is not key=value", kv)
		}
		if fs.Lookup(k) == nil {
			return side, fmt.Errorf("unknown override key %q", k)
		}
		if err := fs.Set(k, v); err != nil {
			return side, fmt.Errorf("override %q: %v", kv, err)
		}
	}
	return side, nil
}

// buildSim resolves one side's spec and constructs its simulator.
func buildSim(spec disha.SimSpec) (*disha.Simulator, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	return disha.NewSimulator(cfg)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-bisect:", err)
		os.Exit(2)
	}
}
