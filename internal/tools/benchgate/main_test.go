package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors builds the binary and pins the command line: with no
// -gate (there is no default comparison) or no input file it prints one
// usage line and exits 2.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchgate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build benchgate: %v\n%s", err, out)
	}
	bench := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(bench, []byte("BenchmarkA-2 10 100 ns/op\nBenchmarkB-2 10 200 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("benchgate %v did not run", args)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
	const usage = "usage: benchgate -gate candidate:baseline:max-ratio [-gate ...] bench-output.txt\n"
	for _, args := range [][]string{{bench}, {"-gate", "BenchmarkA:BenchmarkB:1.0"}, {}} {
		if out, code := run(args...); code != 2 || out != usage {
			t.Errorf("benchgate %v: exit %d, want 2 and the usage line; output:\n%s", args, code, out)
		}
	}
	if out, code := run("-gate", "BenchmarkA:BenchmarkB:1.0", bench); code != 0 || !strings.Contains(out, "PASS") {
		t.Errorf("passing gate: exit %d; output:\n%s", code, out)
	}
	if out, code := run("-gate", "BenchmarkB:BenchmarkA:1.0", bench); code != 1 || !strings.Contains(out, "FAIL") {
		t.Errorf("failing gate: exit %d; output:\n%s", code, out)
	}
}

func TestParseBenchLine(t *testing.T) {
	line := "BenchmarkStepSerial/torus16-8   \t     400\t   123456 ns/op\t       0 B/op\t       0 allocs/op\t       256 routers/step"
	name, values, ok := parseBenchLine(line)
	if !ok || name != "BenchmarkStepSerial/torus16" || values["ns/op"] != 123456 || values["routers/step"] != 256 || len(values) != 4 {
		t.Fatalf("parsed (%q, %v, %v)", name, values, ok)
	}
	for _, bad := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t1.234s",
		"BenchmarkNoNsop 10 5 MB/s",
	} {
		if _, _, ok := parseBenchLine(bad); ok {
			t.Fatalf("line %q unexpectedly parsed", bad)
		}
	}
}

func TestParseGate(t *testing.T) {
	gt, err := parseGate("BenchmarkStepActiveSet/load0.1:BenchmarkStepSerial/load0.1:0.667")
	if err != nil {
		t.Fatal(err)
	}
	if gt.candidate != "BenchmarkStepActiveSet/load0.1" ||
		gt.baseline != "BenchmarkStepSerial/load0.1" || gt.maxRatio != 0.667 {
		t.Fatalf("parsed %+v", gt)
	}
	for _, bad := range []string{
		"",
		"a:b",
		"a:b:c:d",
		"a:b:zero",
		"a:b:-1",
		"a:b:0",
		":b:1.0",
		"a::1.0",
	} {
		if _, err := parseGate(bad); err == nil {
			t.Fatalf("gate %q unexpectedly parsed", bad)
		}
	}
}

func TestEvalGate(t *testing.T) {
	samples := map[string][]float64{
		"BenchmarkBase": {100, 110, 90, 105, 95}, // median 100
		"BenchmarkFast": {40, 50, 45},            // median 45
		"BenchmarkSlow": {200, 210, 190},         // median 200
	}
	if r := evalGate(gate{candidate: "BenchmarkFast", baseline: "BenchmarkBase", maxRatio: 0.667}, samples); !r.ok() || r.ratio != 0.45 {
		t.Fatalf("fast candidate: %+v", r)
	}
	if r := evalGate(gate{candidate: "BenchmarkSlow", baseline: "BenchmarkBase", maxRatio: 1.0}, samples); r.ok() {
		t.Fatalf("slow candidate passed gate: %+v", r)
	}
	// Missing benchmarks must fail rather than silently disarm the gate.
	if r := evalGate(gate{candidate: "BenchmarkGone", baseline: "BenchmarkBase", maxRatio: 1.0}, samples); r.ok() || r.missing != "BenchmarkGone" {
		t.Fatalf("missing candidate: %+v", r)
	}
	if r := evalGate(gate{candidate: "BenchmarkFast", baseline: "BenchmarkGone", maxRatio: 1.0}, samples); r.ok() || r.missing != "BenchmarkGone" {
		t.Fatalf("missing baseline: %+v", r)
	}
}

// TestMetricGate: a gate whose baseline is a unit bounds the median of the
// candidate's reported metric, and a metric nobody reported fails.
func TestMetricGate(t *testing.T) {
	samples := map[string][]float64{}
	for _, line := range []string{
		"BenchmarkStepProfiled-2   400   344548 ns/op   1.083 on/off   23690 B/op   66 allocs/op",
		"BenchmarkStepProfiled-2   400   340793 ns/op   0.990 on/off   23690 B/op   66 allocs/op",
		"BenchmarkStepProfiled-2   400   437577 ns/op   1.300 on/off   23690 B/op   66 allocs/op",
	} {
		name, values, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("line %q not parsed", line)
		}
		for unit, v := range values {
			samples[sampleKey(name, unit)] = append(samples[sampleKey(name, unit)], v)
		}
	}
	if r := evalGate(gate{candidate: "BenchmarkStepProfiled", baseline: "on/off", maxRatio: 1.111}, samples); !r.ok() || r.ratio != 1.083 || r.candN != 3 {
		t.Fatalf("metric gate: %+v", r)
	}
	if r := evalGate(gate{candidate: "BenchmarkStepProfiled", baseline: "on/off", maxRatio: 1.05}, samples); r.ok() {
		t.Fatalf("metric over its bound passed: %+v", r)
	}
	if r := evalGate(gate{candidate: "BenchmarkStepProfiled", baseline: "off/on", maxRatio: 2}, samples); r.ok() || r.missing != "BenchmarkStepProfiled off/on" {
		t.Fatalf("unreported metric: %+v", r)
	}
	table := renderTable([]gateResult{evalGate(gate{candidate: "BenchmarkStepProfiled", baseline: "on/off", maxRatio: 1.111}, samples)})
	if !strings.Contains(table, "1.083 (n=3)") || !strings.Contains(table, "PASS") {
		t.Errorf("metric row:\n%s", table)
	}
}

func TestRenderTable(t *testing.T) {
	samples := map[string][]float64{
		"BenchmarkBase": {100},
		"BenchmarkFast": {45},
		"BenchmarkSlow": {200},
	}
	table := renderTable([]gateResult{
		evalGate(gate{candidate: "BenchmarkFast", baseline: "BenchmarkBase", maxRatio: 0.667}, samples),
		evalGate(gate{candidate: "BenchmarkSlow", baseline: "BenchmarkBase", maxRatio: 1.0}, samples),
		evalGate(gate{candidate: "BenchmarkGone", baseline: "BenchmarkBase", maxRatio: 1.0}, samples),
	})
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header + 3 rows:\n%s", len(lines), table)
	}
	for i, want := range []string{"RESULT", "PASS", "FAIL", "MISSING BenchmarkGone"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d missing %q:\n%s", i, want, table)
		}
	}
	// Every row must carry both medians (or "-") so a failure is diagnosable
	// from the table alone.
	if !strings.Contains(lines[1], "45 (n=1)") || !strings.Contains(lines[1], "100 (n=1)") {
		t.Errorf("pass row lacks medians:\n%s", table)
	}
	if !strings.Contains(lines[3], "-") {
		t.Errorf("missing row lacks placeholder:\n%s", table)
	}
}

func TestGateListSet(t *testing.T) {
	var gl gateList
	if err := gl.Set("A:B:1.0"); err != nil {
		t.Fatal(err)
	}
	if err := gl.Set("C:D:0.5"); err != nil {
		t.Fatal(err)
	}
	if len(gl) != 2 || gl[1].candidate != "C" || gl[1].maxRatio != 0.5 {
		t.Fatalf("gate list %+v", gl)
	}
	if gl.String() == "" {
		t.Fatal("empty String()")
	}
	if err := gl.Set("nope"); err == nil {
		t.Fatal("bad gate accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
}
