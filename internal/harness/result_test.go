package harness

import (
	"math"
	"strings"
	"testing"
)

// header is the first line of every curve's CSV block.
const header = "series,load,latency,throughput,latency_ci95,net_latency,p95,seizure_ratio,throughput_ci95,true_deadlock_rate"

// TestResultCSV pins Result.CSV byte for byte on a hand-built two-curve
// result: the fixed formats of the first four columns, %.6g for the rest,
// and the true deadlock rate as TrueDeadlocks over WFGSamples.
func TestResultCSV(t *testing.T) {
	res := &Result{
		Spec: &Spec{Algs: []AlgSpec{{Label: "disha-m0"}, {Label: "dor"}}},
		Points: map[string][]PointResult{
			"disha-m0": {
				{Load: 0.1, MeanLatency: 40, Throughput: 0.1, LatencyCI95: 0.443542, MeanNetLatency: 38.25, P95Latency: 97},
				{Load: 0.2, MeanLatency: 45.12345, Throughput: 0.19876, LatencyCI95: 1.5, MeanNetLatency: 40.5,
					P95Latency: 88.25, SeizureRatio: 0.00125707, ThroughputCI95: 0.0031, TrueDeadlocks: 1, WFGSamples: 3},
			},
			"dor": {{Load: 0.1, MeanLatency: 35, Throughput: 0.1, P95Latency: 61, TrueDeadlocks: 2}},
		},
	}
	want := header + "\n" +
		"disha-m0,0.1000,40.000,0.1000,0.443542,38.25,97,0,0,0\n" +
		"disha-m0,0.2000,45.123,0.1988,1.5,40.5,88.25,0.00125707,0.0031,0.333333\n" +
		header + "\n" +
		"dor,0.1000,35.000,0.1000,0,0,61,0,0,0\n"
	if got := res.CSV(); got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

// TestPartialSweepCSVHeaders: a curve whose every point failed still writes
// its block's full header, so every block of the file has the same columns.
func TestPartialSweepCSVHeaders(t *testing.T) {
	spec := tinySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	poisoned := map[string]bool{}
	for _, load := range spec.Loads {
		poisoned[spec.PointKey(spec.Algs[0].Label, load, 0)] = true
	}
	hookPoints(t, func(key string) {
		if poisoned[key] {
			panic("poison curve")
		}
	})
	res, rep, err := spec.RunWith(RunOptions{Parallel: 1})
	if err == nil || rep.Failed() != len(spec.Loads) {
		t.Fatalf("err = %v, report %+v: want the poisoned curve's %d points failed", err, rep, len(spec.Loads))
	}
	headers, rows := 0, 0
	for _, line := range strings.Split(strings.TrimSuffix(res.CSV(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "series,"):
			headers++
			if line != header {
				t.Errorf("header %q, want %q", line, header)
			}
		case strings.HasPrefix(line, spec.Algs[1].Label+","):
			rows++
		default:
			t.Errorf("unexpected line %q", line)
		}
	}
	if headers != 2 || rows != len(spec.Loads) {
		t.Fatalf("%d headers and %d rows, want 2 and %d:\n%s", headers, rows, len(spec.Loads), res.CSV())
	}
}

// TestPartialSweepTable: a table puts each point in its own load's row, so a
// curve whose first point failed shows "-" there, not its next point.
func TestPartialSweepTable(t *testing.T) {
	spec := tinySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	victim := spec.PointKey(spec.Algs[0].Label, spec.Loads[0], 0)
	hookPoints(t, func(key string) {
		if key == victim {
			panic("poison point")
		}
	})
	res, _, err := spec.RunWith(RunOptions{Parallel: 1})
	if err == nil {
		t.Fatal("the poisoned point did not fail")
	}
	table := res.LatencyTable()
	for _, line := range strings.Split(table, "\n")[2:4] {
		cells := strings.Fields(line)
		load, m0 := cells[0], cells[1] // labels sort disha-m0 before dor
		if want := load != "0.20"; (m0 != "-") != want {
			t.Errorf("load %s: disha-m0 cell %q:\n%s", load, m0, table)
		}
	}
}

func TestSaturationLoad(t *testing.T) {
	var pts []PointResult
	for i, lat := range []float64{40, 42, 45, 60, 400, 2000} {
		pts = append(pts, PointResult{Load: 0.1 * float64(i+1), MeanLatency: lat})
	}
	// Threshold 3x base (40) = 120: first exceeded at load 0.5.
	if got := SaturationLoad(pts, 3); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("saturation %v, want 0.5", got)
	}
	// Never saturates: returns last + step.
	flat := []PointResult{{Load: 0.1, MeanLatency: 40}, {Load: 0.2, MeanLatency: 41}}
	if got := SaturationLoad(flat, 3); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("unsaturated estimate %v, want 0.3", got)
	}
}

func TestSaturationLoadEdgeCases(t *testing.T) {
	if SaturationLoad(nil, 3) != 0 {
		t.Fatal("empty curve saturation must be 0")
	}
	one := []PointResult{{Load: 0.1, MeanLatency: 10}}
	if got := SaturationLoad(one, 3); got != 0.1 {
		t.Fatalf("single-point unsaturated estimate %v", got)
	}
}

func TestPeakThroughput(t *testing.T) {
	var pts []PointResult
	for _, th := range []float64{0.1, 0.35, 0.3} {
		pts = append(pts, PointResult{Throughput: th})
	}
	if got := PeakThroughput(pts); got != 0.35 {
		t.Fatalf("peak %v", got)
	}
}
