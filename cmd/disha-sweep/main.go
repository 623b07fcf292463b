// Command disha-sweep regenerates the paper's figures: it runs the canned
// load sweeps (Figures 3a, 3b, 4, 5, 6, 7) and prints latency, throughput and
// token-seizure tables plus a saturation summary, optionally writing CSV
// files for plotting.
//
// -parallel points simulate at once (default: all cores) with identity-keyed
// seeds, so the results are bit-identical to a serial run.
// -journal sends every point through a private fabric.Coordinator — the one
// disha-serve runs its sweeps through, here without workers — whose result
// store is that JSONL file: finished points are appended to it and points it
// already holds are served, not run, so a killed sweep rerun with the same
// flags restarts where it left off (the file is disha-serve's
// <data-dir>/results.jsonl, and either program opens the other's). The
// points that were running when the process died run again from cycle 0,
// and the CSV output is byte-identical to an uninterrupted run's. If any
// point fails the command prints the partial results plus a failure summary
// and exits non-zero.
//
// Examples:
//
//	disha-sweep -fig 4                                  # Figure 4, all cores
//	disha-sweep -fig all -scale small -parallel 2       # everything, 2 points at a time
//	disha-sweep -fig 3a -csv out/                       # write out/fig3a-....csv
//	disha-sweep -fig 4 -replicas 5                      # mean ± 95% CI over 5 seeds
//	disha-sweep -fig all -journal sweep.journal.jsonl   # rerun to resume
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	disha "repro"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

func main() {
	var (
		fig       = flag.String("fig", "4", "figure to reproduce: "+strings.Join(harness.FigureNames(), ", ")+", or all (the paper's: "+strings.Join(harness.PaperFigureNames(), ", ")+")")
		scale     = flag.String("scale", "paper", "scale: paper (16x16, 32 flits) or small (8x8, 16 flits)")
		csvDir    = flag.String("csv", "", "directory to write CSV results into (optional)")
		warmup    = flag.Int("warmup", 0, "override warm-up cycles")
		measure   = flag.Int("measure", 0, "override measurement cycles")
		seed      = flag.Uint64("seed", 0, "override seed")
		quiet     = flag.Bool("quiet", false, "suppress per-point progress")
		charts    = flag.Bool("plot", true, "render ASCII charts of each figure")
		parallel  = flag.Int("parallel", 0, "points simulated in this process at once (0 = all cores, 1 = one at a time; results are identical either way)")
		replicas  = flag.Int("replicas", 1, "independent runs per point, aggregated into mean ± 95% CI")
		journal   = flag.String("journal", "", "JSONL result journal: completed points are appended to it, points it already holds are not rerun (optional)")
		metrics   = flag.String("metrics-addr", "", "serve sweep progress on this address at /metrics (optional, e.g. :9090)")
		chaosFile = flag.String("chaos", "", "arm this JSON chaos event-schedule on every point's network (cycles are warm-up + measurement; see CHAOS.md)")
		version   = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}

	var chaosEvents []disha.ReconfigEvent
	if *chaosFile != "" {
		sched, err := chaos.Load(*chaosFile)
		fail(err)
		chaosEvents = sched.Events
		fmt.Fprintf(os.Stderr, "disha-sweep: chaos campaign %q armed on every point: %d events\n",
			sched.Name, len(sched.Events))
	}

	var engineMetrics *engine.Metrics
	if *metrics != "" {
		reg := telemetry.NewRegistry()
		engineMetrics = engine.NewMetrics(reg)
		addr, shutdown, err := telemetry.Serve(*metrics, reg)
		fail(err)
		defer shutdown()
		fmt.Fprintf(os.Stderr, "serving sweep progress on http://%s/metrics\n", addr)
	}

	// -journal: the coordinator's store is the one reader and writer of
	// results files, so the sweep runs through a coordinator of its own. Its
	// worker API is mounted nowhere: every point it does not hold runs here.
	var store *fabric.Coordinator
	if *journal != "" {
		store = fabric.NewCoordinator(fabric.CoordinatorOptions{})
		defer store.Close()
		_, err := store.OpenStore(*journal)
		fail(err)
	}

	names := []string{*fig}
	if *fig == "all" {
		names = harness.PaperFigureNames()
	}

	var failedFigures []string
	totalFailed, totalPoints := 0, 0
	for _, name := range names {
		// The same resolver the job server uses, so one (figure, scale,
		// overrides) tuple names the same points in both.
		spec, err := harness.SpecFor(name, *scale, *warmup, *measure, *seed, nil)
		fail(err)
		fail(spec.CheckSweep(*parallel, *replicas, *warmup, *measure))
		spec.Chaos = chaosEvents
		fmt.Printf("== figure %s: %s ==\n", name, spec.Name)
		progress := func(s string) { fmt.Println("  " + s) }
		if *quiet {
			progress = nil
		}
		opts := disha.SweepOptions{
			Parallel: *parallel,
			Replicas: *replicas,
			Progress: progress,
			Metrics:  engineMetrics,
		}
		var before fabric.Stats
		if store != nil {
			opts.PointRunner = store.Execute
			before = store.Stats() // the store accumulates across figures
		}
		res, report, err := spec.RunWith(opts)
		if report != nil {
			totalPoints += report.Total
			totalFailed += report.Failed()
		}
		if err != nil && res == nil {
			fail(err) // setup error: nothing to salvage
		}
		fmt.Println()
		fmt.Println(res.LatencyTable())
		fmt.Println(res.ThroughputTable())
		if *charts {
			fmt.Println(disha.PlotLatency(spec.Name+" — latency vs load", res))
			fmt.Println(disha.PlotThroughput(spec.Name+" — throughput vs load", res))
		}
		if name == "3a" {
			fmt.Println(res.SeizureTable())
		}
		fmt.Println(res.SaturationSummary())
		summary := report.String()
		if store != nil {
			after := store.Stats()
			summary += fmt.Sprintf("; %d points executed, %d served from %s",
				after.LocalRuns-before.LocalRuns, after.CacheHits-before.CacheHits, *journal)
		}
		fmt.Printf("(%s: %s)\n\n", spec.Name, summary)

		if err != nil {
			failedFigures = append(failedFigures, name)
			fmt.Fprintf(os.Stderr, "disha-sweep: figure %s incomplete: %v\n", name, err)
			for _, f := range report.Failures {
				fmt.Fprintf(os.Stderr, "  FAILED %s: %s\n", f.Key, firstLine(f.Err))
			}
		}

		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fail(err)
			}
			path := filepath.Join(*csvDir, strings.ReplaceAll(spec.Name, "/", "-")+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fail(err)
			}
			fmt.Println("wrote", path)
		}
	}

	exit := 0
	if store != nil {
		if n := store.Stats().StoreErrors; n > 0 {
			// The results above are complete; the file is not.
			fmt.Fprintf(os.Stderr, "disha-sweep: %d finished points could not be appended to %s\n", n, *journal)
			exit = 1
		}
	}
	if len(failedFigures) > 0 {
		fmt.Fprintf(os.Stderr, "disha-sweep: PARTIAL RESULTS: %d/%d points failed across figure(s) %s",
			totalFailed, totalPoints, strings.Join(failedFigures, ", "))
		if *journal != "" {
			fmt.Fprint(os.Stderr, "; rerun with the same flags to retry only the failures")
		}
		fmt.Fprintln(os.Stderr)
		exit = 1
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-sweep:", err)
		os.Exit(1)
	}
}
