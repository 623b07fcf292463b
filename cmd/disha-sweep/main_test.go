package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// build compiles the command in pkg (relative to this directory) into a test
// directory and returns a function that runs it to completion, giving its
// combined output and exit code, plus the binary's path.
func build(t *testing.T, pkg string) (run func(args ...string) (string, int), bin string) {
	t.Helper()
	bin = filepath.Join(t.TempDir(), "bin")
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("%s %v did not run", pkg, args)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}, bin
}

// TestSweepResolvesThroughSpecFor builds the binary and pins that the CLI
// means by (-fig, -scale, -warmup, -measure, -seed) exactly what
// harness.SpecFor — the job server's and the fleet worker's resolver —
// means: the CSV it writes is byte-identical to the same tuple resolved and
// run in-process, and the names SpecFor rejects — like the numbers
// Spec.CheckSweep refuses, which used to run as defaults — are one-line
// errors.
func TestSweepResolvesThroughSpecFor(t *testing.T) {
	dir := t.TempDir()
	run, _ := build(t, ".")

	if out, code := run("-fig", "3a", "-scale", "small", "-warmup", "50", "-measure", "150", "-seed", "5",
		"-quiet", "-plot=false", "-parallel", "2", "-csv", dir); code != 0 {
		t.Fatalf("disha-sweep exit %d:\n%s", code, out)
	}
	spec, err := harness.SpecFor("3a", "small", 50, 150, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, strings.ReplaceAll(spec.Name, "/", "-")+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != res.CSV() {
		t.Errorf("CLI CSV differs from harness.SpecFor's for the same tuple:\n%s\nwant:\n%s", got, res.CSV())
	}

	for _, bad := range []struct {
		args string
		code int
		want string
	}{
		{"-scale huge", 1, `unknown scale "huge"`},
		{"-fig 9", 1, `unknown figure "9"`},
		{"-checkpoint-every 100", 1, "must be set together"},
		{"-replicas -3", 1, "negative replicas -3"},
		{"-warmup -5", 1, "negative warmup -5"},
		{"-parallel -1", 1, "negative parallel -1"},
		{"-retries -1", 1, "negative retries -1"},
		{"-replicas 1000000000", 1, "exceeds 65536 points"},
	} {
		out, code := run(strings.Fields(bad.args)...)
		if code != bad.code || !strings.Contains(out, bad.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("disha-sweep %s: exit %d, want %d with one line containing %q; output:\n%s",
				bad.args, code, bad.code, bad.want, out)
		}
	}
}

// TestJournalIsTheCoordinatorStore drives -journal as a process. The file is
// a coordinator's result store: a second run of the same command executes no
// point and writes a byte-identical CSV; the results.jsonl a disha-serve
// -data-dir wrote is served to disha-sweep -journal; and a server started on
// a sweep's journal runs nothing either. "N points executed" in the summary
// line is the coordinator's Stats().LocalRuns over that figure.
func TestJournalIsTheCoordinatorStore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test running real simulation points")
	}
	sweep, _ := build(t, ".")
	dir := t.TempDir()
	// sweepTo runs the one sweep of this test against a journal and returns
	// its summary line and CSV.
	sweepTo := func(journal, csvDir string) (summary, csv string) {
		t.Helper()
		out, code := sweep("-fig", "3a", "-scale", "small", "-warmup", "50", "-measure", "150",
			"-quiet", "-plot=false", "-parallel", "2", "-journal", journal, "-csv", filepath.Join(dir, csvDir))
		if code != 0 {
			t.Fatalf("disha-sweep -journal %s: exit %d:\n%s", journal, code, out)
		}
		data, err := os.ReadFile(filepath.Join(dir, csvDir, "fig3a-deadlock-characterization.csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "(fig3a-") {
				return line, string(data)
			}
		}
		t.Fatalf("no summary line in:\n%s", out)
		return "", ""
	}
	journal := filepath.Join(dir, "s.jsonl")
	first, want := sweepTo(journal, "out1")
	if !strings.Contains(first, "8/8 jobs completed") || !strings.Contains(first, "; 8 points executed, 0 served from "+journal) {
		t.Fatalf("first run: %s", first)
	}
	second, got := sweepTo(journal, "out2")
	if !strings.Contains(second, "8/8 jobs completed") || !strings.Contains(second, "; 0 points executed, 8 served from "+journal) {
		t.Fatalf("second run: %s", second)
	}
	if got != want {
		t.Fatalf("CSV served from the journal differs:\n%s\nwant:\n%s", got, want)
	}

	// serveJob starts disha-serve on dataDir (-fleet only to have
	// /fleet/status; no worker joins), runs the same sweep as a job and
	// returns its CSV and the coordinator's status.
	_, serveBin := build(t, "../disha-serve")
	serveJob := func(dataDir string) (csv, status string) {
		t.Helper()
		cmd := exec.Command(serveBin, "-addr", "127.0.0.1:0", "-fleet", "-data-dir", dataDir)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() { cmd.Process.Kill(); cmd.Wait() }()
		// The server prints the address it bound; nothing after that line is
		// read, and the kill above ends the pipe.
		var base string
		for sc := bufio.NewScanner(stderr); base == "" && sc.Scan(); {
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				base = "http://" + m[1]
			}
		}
		if base == "" {
			t.Fatal("disha-serve exited without printing its bound address")
		}
		go io.Copy(io.Discard, stderr)
		resp, err := http.Post(base+"/jobs", "application/json",
			strings.NewReader(`{"figure":"3a","scale":"small","warmup":50,"measure":150}`))
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs: %v %v", resp, err)
		}
		resp.Body.Close()
		poll(t, "the job to finish", func() bool { return strings.Contains(fetch(t, base+"/jobs/job-0001"), `"state": "done"`) })
		return fetch(t, base+"/jobs/job-0001/result.csv"), fetch(t, base+"/fleet/status")
	}
	// A server's results.jsonl is a sweep's journal...
	dataDir := filepath.Join(dir, "data")
	if csv, status := serveJob(dataDir); csv != want || !strings.Contains(status, `"local_runs":8`) {
		t.Fatalf("disha-serve on an empty data dir: status %s, CSV:\n%s", status, csv)
	}
	if summary, csv := sweepTo(filepath.Join(dataDir, "results.jsonl"), "out3"); csv != want || !strings.Contains(summary, "; 0 points executed, 8 served") {
		t.Fatalf("disha-sweep -journal <data-dir>/results.jsonl: %s", summary)
	}
	// ...and a sweep's journal is a server's results.jsonl.
	dataDir2 := filepath.Join(dir, "data2")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dataDir2, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir2, "results.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if csv, status := serveJob(dataDir2); csv != want || !strings.Contains(status, `"local_runs":0`) || !strings.Contains(status, `"cache_hits":8`) {
		t.Fatalf("disha-serve on a sweep's journal: status %s, CSV:\n%s", status, csv)
	}
}

var listening = regexp.MustCompile(`listening on (127\.0\.0\.1:[1-9][0-9]*) `)

// poll waits until cond holds.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// fetch GETs url and returns the body of a 200 reply ("" otherwise).
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return ""
	}
	return string(body)
}
