// Command benchmark is the repository's measuring stick: four workloads, the
// end-to-end metrics a user of the simulator and of the sweep service would
// see, and a traced pass that attributes them to layers. BENCHMARK.json at
// the repository root names the workloads, metrics, units and bounds;
// README.md in this directory says why each exists.
//
//	bash benchmark/run.sh                         # every workload, both passes
//	bash benchmark/run.sh -workload torus16-deadlock -seed 7 -seconds 15 -trace 0
//	bash benchmark/run.sh -compare a/result.json b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestItem `json:"workloads"`
	EndToEnd   []manifestItem `json:"end_to_end"`
	PerLayer   []manifestItem `json:"per_layer"`
}

type manifestItem struct {
	Name   string  `json:"name"`
	Why    string  `json:"why,omitempty"`
	Unit   string  `json:"unit,omitempty"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (bash benchmark/run.sh) or its parent (go run . in benchmark/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from benchmark/")
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &mf, nil
}

// passResult is one pass (untraced or traced) over one workload.
type passResult struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Digest    []string          `json:"digest,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// SelfMS is span self time by span name, traced pass only.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
}

// resultFile is what a run leaves in <out>/result.json.
type resultFile struct {
	Machine machine      `json:"machine"`
	Seeds   []uint64     `json:"seeds"`
	Seconds float64      `json:"seconds"`
	OutDir  string       `json:"out_dir"`
	Passes  []passResult `json:"passes"`
}

// options are the command's arguments.
type options struct {
	workload string
	seeds    []uint64
	seconds  float64
	trace    int    // 0 untraced, 1 traced, -1 both
	root     string // repository root: BENCHMARK.json, .git
	out      string
	toy      bool // smoke-test sizes; no flag sets it
}

// seedsFor expands the run's seed into its three simulation seeds: 1 gives
// 1,2,3 and 2 gives 4,5,6, so runs with different seeds share no input.
func seedsFor(seed uint64) []uint64 {
	base := (seed-1)*3 + 1
	return []uint64{base, base + 1, base + 2}
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("-seeds %q: want positive integers separated by commas", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Uint64("seed", 1, "run seed; expands to three simulation seeds (1 -> 1,2,3; 2 -> 4,5,6)")
	seeds := fs.String("seeds", "", "explicit simulation seeds, comma separated; overrides -seed")
	seconds := fs.Float64("seconds", 0, "host seconds one pass is sized for (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
	out := fs.String("out", ".bench_out", "directory for result.json, trace.json and scratch files, relative to the repository root")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	mf, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return compareFiles(mf, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seed == 0 {
		fmt.Fprintln(stderr, "benchmark: -seed must be positive")
		return 2
	}
	opt := options{root: root, workload: *workload, seeds: seedsFor(*seed), seconds: *seconds, trace: *trace, out: filepath.Join(root, *out)}
	if *seeds != "" {
		if opt.seeds, err = parseSeeds(*seeds); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(mf.RunSeconds)
	}
	res, err := run(mf, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, p := range res.Passes {
		if !p.Correct {
			return 1
		}
	}
	return 0
}

// run executes the selected passes, prints each as it finishes and writes
// result.json (and trace.json after a traced pass) to opt.out.
func run(mf *manifest, opt options, stdout io.Writer) (*resultFile, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	outAbs, err := filepath.Abs(opt.out)
	if err != nil {
		return nil, err
	}
	var selected []workload
	for _, w := range workloads(opt.toy) {
		if opt.workload == "" || opt.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	res := &resultFile{Machine: thisMachine(opt.root), Seeds: opt.seeds, Seconds: opt.seconds, OutDir: outAbs}
	rc := runConfig{seeds: opt.seeds, seconds: opt.seconds, workDir: filepath.Join(outAbs, "work")}

	var spans []span
	for _, traced := range []int{0, 1} {
		if opt.trace >= 0 && opt.trace != traced {
			continue
		}
		for _, w := range selected {
			p, sp, err := runPass(w, traced, rc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if err := p.applyManifest(mf); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			spans = append(spans, sp...)
			res.Passes = append(res.Passes, *p)
			if err := p.print(stdout); err != nil {
				return nil, err
			}
		}
	}
	if spans != nil {
		if err := writeJSONFile(filepath.Join(opt.out, "trace.json"), spans); err != nil {
			return nil, err
		}
	}
	if err := writeJSONFile(filepath.Join(opt.out, "result.json"), res); err != nil {
		return nil, err
	}
	return res, nil
}

func runPass(w workload, traced int, rc runConfig) (*passResult, []span, error) {
	rc.deadline = time.Now().Add(time.Duration(6 * rc.seconds * float64(time.Second)))
	var o ops
	m := metricSet{}
	p := &passResult{Workload: w.name, Trace: traced}
	var tr *tracer
	var err error
	switch {
	case traced == 0 && w.kernel != nil:
		p.Digest, err = w.kernelEndToEnd(rc, &o, m)
	case traced == 0:
		p.Digest, err = w.serveEndToEnd(rc, &o, m)
	case w.kernel != nil:
		tr = newTracer(w.name)
		err = w.kernelTraced(rc, &o, m, tr)
	default:
		tr = newTracer(w.name)
		err = w.serveTraced(rc, &o, m, tr)
	}
	if err != nil {
		return nil, nil, err
	}
	p.Metrics = m
	p.Attempted, p.Failed, p.Failures = o.attempted, o.failed, o.failures
	p.Correct = o.failed == 0
	spans := tr.all()
	if tr != nil {
		p.SelfMS = selfMSByName(spans)
	}
	return p, spans, nil
}

// applyManifest gives every metric its unit and makes the pass's metric names
// exactly the manifest's: a layer the workload does not cross reads 0, and a
// metric the manifest does not know is an error.
func (p *passResult) applyManifest(mf *manifest) error {
	items := mf.EndToEnd
	if p.Trace == 1 {
		items = mf.PerLayer
	}
	known := make(map[string]bool, len(items))
	for _, it := range items {
		known[it.Name] = true
		mt, ok := p.Metrics[it.Name]
		if !ok && p.Trace == 0 {
			return fmt.Errorf("end-to-end metric %s was not measured", it.Name)
		}
		if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			return fmt.Errorf("metric %s is %v", it.Name, mt.Value)
		}
		mt.Unit = it.Unit
		p.Metrics[it.Name] = mt
	}
	for name := range p.Metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return nil
}

// print writes the pass as a table and then, as its last line, the one JSON
// object the driver reads.
func (p *passResult) print(w io.Writer) error {
	kind := "end-to-end, tracing off"
	if p.Trace == 1 {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s (%s) ==\n", p.Workload, kind)
	for _, name := range metricSet(p.Metrics).names() {
		mt := p.Metrics[name]
		label := "host"
		if mt.Exact {
			label = "simulated"
		}
		fmt.Fprintf(w, "%-44s %16.6g %-10s n=%-8d %s\n", name, mt.Value, mt.Unit, mt.Samples, label)
	}
	for i, d := range p.Digest {
		fmt.Fprintf(w, "digest[%d] %s\n", i, d)
	}
	if hp := highestPercentile(p.Metrics["job_latency_s_p90"].Samples); p.Trace == 0 && hp < 90 {
		fmt.Fprintf(w, "note: %d latency samples support p%g at most; job_latency_s_p90 is not a settled tail at this size\n", p.Metrics["job_latency_s_p90"].Samples, hp)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", p.Attempted, p.Failed)
	for _, f := range p.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, make(map[string]value, len(p.Metrics))}
	for name, mt := range p.Metrics {
		line.Metrics[name] = value{mt.Value, mt.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// machine is where the numbers were taken. Host metrics mean nothing without
// it.
type machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func thisMachine(root string) machine {
	return machine{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git; a checkout that is
// not a repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}
