package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy returns how much worse b is than a as a share of a, given which
// direction is better; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints one row per (metric, workload) present in both result
// files — both values and b/a — and applies each end-to-end metric's bound
// from BENCHMARK.json. It returns 1 when any bound is breached or a pass in b
// had failed operations. Simulated metrics are marked when they differ at
// all: between runs of one commit, or of two commits that only differ in
// speed, they must not.
func compareFiles(mf *manifest, aPath, bPath string, stdout, stderr io.Writer) int {
	a, err := readResult(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(mf, a, b, stdout)
}

func compareResults(mf *manifest, a, b *resultFile, w io.Writer) int {
	bounds := make(map[string]manifestItem)
	for _, it := range mf.EndToEnd {
		bounds[it.Name] = it
	}
	fmt.Fprintf(w, "a: %s, %d cores, commit %s, seeds %v, %gs\n", a.Machine.CPU, a.Machine.NumCPU, a.Machine.Commit, a.Seeds, a.Seconds)
	fmt.Fprintf(w, "b: %s, %d cores, commit %s, seeds %v, %gs\n", b.Machine.CPU, b.Machine.NumCPU, b.Machine.Commit, b.Seeds, b.Seconds)
	sameInputs := slices.Equal(a.Seeds, b.Seeds) && a.Seconds == b.Seconds
	if !sameInputs {
		fmt.Fprintln(w, "seeds or seconds differ: simulated metrics are expected to differ and are not marked")
	}
	fmt.Fprintf(w, "%-44s %-20s %14s %14s %9s  %s\n", "metric", "workload", "a", "b", "b/a", "verdict (ratio base: a)")

	breaches := 0
	for _, pa := range a.Passes {
		i := slices.IndexFunc(b.Passes, func(p passResult) bool { return p.Workload == pa.Workload && p.Trace == pa.Trace })
		if i < 0 {
			continue
		}
		pb := b.Passes[i]
		for _, name := range metricSet(pa.Metrics).names() {
			ma, mb := pa.Metrics[name], pb.Metrics[name]
			verdict := ""
			if it, ok := bounds[name]; ok {
				worse := worseBy(ma.Value, mb.Value, it.Better)
				verdict = fmt.Sprintf("within %g%%", 100*it.Bound)
				if worse > it.Bound {
					verdict = fmt.Sprintf("BREACH: %.1f%% worse, bound %g%%", 100*worse, 100*it.Bound)
					breaches++
				}
			}
			if ma.Exact && sameInputs && ma.Value != mb.Value {
				verdict += " DIFFERS (simulated: must repeat exactly)"
			}
			fmt.Fprintf(w, "%-44s %-20s %14.6g %14.6g %9.4f  %s\n", name, pa.Workload, ma.Value, mb.Value, ratio(mb.Value, ma.Value), verdict)
		}
		if pa.Trace == 0 && sameInputs && !slices.Equal(pa.Digest, pb.Digest) {
			fmt.Fprintf(w, "%-44s %-20s state digest DIFFERS\n", "digest", pa.Workload)
		}
		if pb.Failed > 0 {
			fmt.Fprintf(w, "%-44s %-20s b had %d failed operations of %d\n", "operations", pb.Workload, pb.Failed, pb.Attempted)
			breaches++
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "no end-to-end metric is worse than its bound")
	return 0
}
