// Command disha-sim runs a single network simulation and prints a summary
// report: latency statistics, throughput, deadlock detection and recovery
// counters, and (optionally) a live wait-for-graph analysis.
//
// Example — the paper's configuration at moderate load:
//
//	disha-sim -radix 16 -alg disha -misroutes 3 -traffic uniform -load 0.5
//
// Example — a baseline without recovery:
//
//	disha-sim -alg duato -load 0.5 -cycles 20000
//
// Example — a non-cube topology by name (Disha routes on any graph):
//
//	disha-sim -topo dragonfly-4x2 -alg disha -load 0.3
//
// Example — full observability: Prometheus metrics + pprof on :9090 and a
// JSONL telemetry stream for disha-trace:
//
//	disha-sim -load 0.9 -vcs 1 -metrics-addr :9090 -trace-out run.jsonl -hold 60s
//	disha-trace run.jsonl
//
// Exit status: 0 on success, 2 when the flags do not describe a simulation
// (unknown flag or name, out-of-range value, a configuration the simulator
// rejects), 1 on a run-time failure (checkpoint, chaos-script or trace I/O).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	disha "repro"
	"repro/internal/chaos"
	"repro/internal/telemetry"
)

func main() {
	spec := disha.DefaultSimSpec()
	spec.Flags(flag.CommandLine)
	var (
		cycles = flag.Int("cycles", 10000, "cycles to simulate")
		drain  = flag.Int("drain", 0, "extra cycles to drain after stopping injection (0 = no drain)")
		wfg    = flag.Bool("wfg", false, "run the wait-for-graph analyzer at the end")

		chaosScript  = flag.String("chaos-script", "", "run a chaos campaign: JSON event-schedule of mid-run kill/heal/swap reconfiguration events (see CHAOS.md)")
		chaosGen     = flag.Int("chaos-gen", 0, "generate a seeded chaos campaign of this many kill/heal events for the current topology, save it to -chaos-script, then run it (seeded by -seed)")
		chaosRouters = flag.Bool("chaos-routers", false, "include router kill/heal events in -chaos-gen campaigns")

		ckptPath    = flag.String("checkpoint", "disha-sim.ckpt", "checkpoint file path (used by -checkpoint-every and -restore)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "atomically save a checkpoint every N cycles (0 = off)")
		restore     = flag.Bool("restore", false, "restore the -checkpoint file before running; -cycles then counts total simulated cycles including the restored progress")
		fingerprint = flag.Bool("fingerprint", false, "print the final full-state SHA-256 fingerprint (restored runs match uninterrupted ones)")

		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus /metrics, /healthz, /buildz and /debug/pprof on this address (e.g. :9090)")
		traceOut     = flag.String("trace-out", "", "write telemetry samples, trace events, recovery-episode spans, flight-recorder snapshots and final counters as JSON Lines to this file")
		sampleEvery  = flag.Int("sample-every", 100, "telemetry sampling period in cycles (negative disables sampling)")
		profileEvery = flag.Int("profile-every", 64, "kernel phase-profiler sampling period in cycles (0 disables phase timing)")
		hold         = flag.Duration("hold", 0, "keep the -metrics-addr endpoint up this long after the run (for scraping/pprof)")
		version      = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}
	for _, count := range []struct {
		name string
		v    int
	}{{"cycles", *cycles}, {"drain", *drain}, {"checkpoint-every", *ckptEvery}} {
		if count.v < 0 {
			usage(fmt.Errorf("-%s %d: a cycle count cannot be negative", count.name, count.v))
		}
	}
	cfg, err := spec.Config()
	usage(err)
	sim, err := disha.NewSimulator(cfg)
	usage(err)

	// Restore must happen while the simulator is still fresh: the snapshot
	// carries a configuration guard, so mismatched flags fail loudly here.
	if *restore {
		fail(sim.LoadCheckpoint(*ckptPath))
		fmt.Fprintf(os.Stderr, "disha-sim: restored %s at cycle %d\n", *ckptPath, sim.Now())
	}

	// Observability: attach the telemetry hub when either output is wanted.
	var (
		tel       *disha.Telemetry
		tw        *disha.TelemetryWriter
		traceFile *os.File
	)
	if *metricsAddr != "" || *traceOut != "" {
		opts := disha.TelemetryOptions{SampleEvery: *sampleEvery, ProfileEvery: *profileEvery}
		if *traceOut != "" {
			traceFile, err = os.Create(*traceOut)
			fail(err)
			tw = disha.NewTelemetryWriter(traceFile)
			tw.Meta(map[string]string{
				"topology":  cfg.Topo.Name(),
				"algorithm": cfg.Algorithm.Name(),
				"traffic":   cfg.Pattern.Name(),
				"load":      fmt.Sprintf("%g", spec.Load),
				"msglen":    strconv.Itoa(spec.MsgLen),
				"vcs":       strconv.Itoa(spec.VCs),
				"timeout":   strconv.Itoa(spec.Timeout),
				"recovery":  spec.Recovery,
				"cycles":    strconv.Itoa(*cycles),
				"seed":      strconv.FormatUint(spec.Seed, 10),
			})
			opts.Writer = tw
		}
		tel = sim.EnableTelemetry(opts)
		if *metricsAddr != "" {
			bound, shutdown, err := sim.ServeMetrics(*metricsAddr)
			fail(err)
			defer shutdown()
			fmt.Fprintf(os.Stderr, "disha-sim: serving /metrics and /debug/pprof on http://%s\n", bound)
		}
	}

	// Chaos campaigns arm after any restore (events before the restored
	// cycle were replayed from the checkpoint's reconfiguration log and are
	// dropped on arming, so a resumed run replays the remaining timeline
	// exactly — see CHAOS.md) and after telemetry, so the runner's
	// recovery/reconverge histograms register on the hub.
	if *chaosGen > 0 {
		if *chaosScript == "" {
			fail(fmt.Errorf("-chaos-gen requires -chaos-script (the file to write)"))
		}
		sched, err := chaos.Generate(chaos.CampaignConfig{
			Topo: cfg.Topo, Seed: spec.Seed, Events: *chaosGen, RouterKills: *chaosRouters,
		})
		fail(err)
		fail(sched.Save(*chaosScript))
		fmt.Fprintf(os.Stderr, "disha-sim: generated chaos campaign %q -> %s\n", sched.Name, *chaosScript)
	}
	var chaosRun *chaos.Runner
	if *chaosScript != "" {
		sched, err := chaos.Load(*chaosScript)
		fail(err)
		chaosRun, err = chaos.NewRunner(sim.Network(), sched)
		fail(err)
		fmt.Fprintf(os.Stderr, "disha-sim: chaos campaign %q armed: %d events\n", sched.Name, len(sched.Events))
	}

	var lat disha.LatencyCollector
	sim.OnDeliver(func(p *disha.Packet) { lat.Add(float64(p.Age())) })
	// -cycles is the absolute target, so a restored run stops at the same
	// cycle as the uninterrupted one it resumes. Checkpoints land exactly on
	// multiples of -checkpoint-every, making saves cycle-deterministic too.
	for int64(sim.Now()) < int64(*cycles) {
		step := int64(*cycles) - int64(sim.Now())
		if *ckptEvery > 0 {
			next := (int64(sim.Now())/int64(*ckptEvery) + 1) * int64(*ckptEvery)
			if next-int64(sim.Now()) < step {
				step = next - int64(sim.Now())
			}
		}
		if chaosRun != nil {
			chaosRun.Run(step)
		} else {
			sim.Run(int(step))
		}
		if *ckptEvery > 0 && int64(sim.Now())%int64(*ckptEvery) == 0 {
			fail(sim.SaveCheckpoint(*ckptPath))
		}
	}
	drained := false
	if *drain > 0 {
		drained = sim.Drain(*drain)
		if chaosRun != nil {
			chaosRun.Sync()
		}
	}
	if tel != nil {
		tel.Registry.Publish() // final state for late scrapes
	}
	if tw != nil {
		// Episodes still unresolved at end of run are flushed as "open"
		// spans so disha-trace sees every presumption.
		tel.Episodes.FlushOpen(int64(sim.Now()))
		tw.WriteCounters(int64(sim.Now()), sim.CountersMap())
		fail(tw.Flush())
		fail(traceFile.Close())
		fmt.Fprintf(os.Stderr, "disha-sim: telemetry written to %s\n", *traceOut)
	}

	fmt.Printf("%s | %s | %s | load %.2f | %d-flit messages | %d VCs x depth %d\n",
		cfg.Topo.Name(), cfg.Algorithm.Name(), cfg.Pattern.Name(), spec.Load, spec.MsgLen, spec.VCs, spec.Depth)
	fmt.Println(strings.Repeat("-", 72))
	fmt.Print(sim.Report())
	fmt.Printf("latency:           %v\n", lat.Summarize())
	if chaosRun != nil {
		s := chaosRun.Summary()
		fmt.Println(strings.Repeat("-", 72))
		fmt.Print(chaos.FormatReports(chaosRun.Reports()))
		fmt.Printf("chaos: %d events (%d applied, %d skipped, %d unreconverged) | lost %d pkts / %d flits | worst recovery %d cy, reconverge %d cy\n",
			s.Events, s.Applied, s.Skipped, s.Open, s.PacketsLost, s.FlitsLost, s.MaxRecovery, s.MaxReconverge)
	}
	if *drain > 0 {
		fmt.Printf("drained:           %v\n", drained)
	}
	if *wfg {
		res := sim.AnalyzeDeadlock()
		fmt.Printf("wfg blocked:       %d headers\n", len(res.Blocked))
		fmt.Printf("wfg true deadlock: %v (%d members)\n", res.TrueDeadlock(), len(res.Deadlocked))
	}
	if *fingerprint {
		fmt.Printf("fingerprint:       %s\n", sim.Fingerprint())
	}
	if *metricsAddr != "" && *hold > 0 {
		fmt.Fprintf(os.Stderr, "disha-sim: holding metrics endpoint for %v\n", *hold)
		time.Sleep(*hold)
	}
}

// usage reports a flag set that does not describe a simulation.
func usage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-sim:", err)
		os.Exit(2)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-sim:", err)
		os.Exit(1)
	}
}
