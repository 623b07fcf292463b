package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPostMortem builds disha-sim and disha-trace, records a deadlock-prone
// run, and pins the post-mortem's surface: the episode section is the span
// rendering `disha-trace episodes` prints (verdicts, misprediction rate,
// flight-recorder agreement), -pkt reads the event lines, an unreadable
// trace exits non-zero with one line, and the torn last line of a killed
// run costs a warning, not the trace.
func TestPostMortem(t *testing.T) {
	dir := t.TempDir()
	build := func(name, pkg string) string {
		t.Helper()
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		return bin
	}
	sim, bin := build("disha-sim", "../disha-sim"), build("disha-trace", ".")
	jsonl := filepath.Join(dir, "run.jsonl")
	if out, err := exec.Command(sim, "-radix", "8", "-vcs", "1", "-load", "0.9", "-msglen", "8",
		"-cycles", "3000", "-trace-out", jsonl).CombinedOutput(); err != nil {
		t.Fatalf("disha-sim: %v\n%s", err, out)
	}
	// trace runs the binary and returns the combined output and exit code.
	trace := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("disha-trace %v did not run", args)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
	// episodes cuts the span section out of an output: header through the
	// agreement line.
	section := regexp.MustCompile(`(?s)recovery-episode spans \(\d+\)\n.*?flight-recorder agreement: (\d+)/(\d+) [^\n]*\n`)

	post, code := trace("-episodes", "20", jsonl)
	m := section.FindStringSubmatch(post)
	if code != 0 || m == nil || m[1] != m[2] || m[1] == "0" {
		t.Fatalf("post-mortem: exit %d, want a span section whose flight-recorder agreement is N/N; output:\n%s", code, post)
	}
	for _, want := range []string{"misprediction rate", "true-cycle", "false-presumption", "\nflight-recorder snapshots (", "\nfinal counters @3000\n"} {
		if !strings.Contains(post, want) {
			t.Errorf("post-mortem lacks %q", want)
		}
	}
	if strings.Contains(post, "WARNING") {
		t.Errorf("span labels disagree with the flight recorder:\n%s", m[0])
	}
	sub, code := trace("episodes", jsonl)
	if code != 0 || sub != m[0] {
		t.Errorf("`episodes` (exit %d) and the post-mortem print different episode sections:\n--- episodes\n%s--- post-mortem\n%s", code, sub, m[0])
	}

	first := regexp.MustCompile(`#0 +pkt (\d+) `).FindStringSubmatch(post)
	if first == nil {
		t.Fatalf("no first timeline in:\n%s", m[0])
	}
	events, code := trace("-pkt", first[1], jsonl)
	if code != 0 || !regexp.MustCompile(`^(\[ *\d+\] \S+ +node=\d+\n)+$`).MatchString(events) || !strings.Contains(events, "] timeout ") {
		t.Errorf("-pkt %s: exit %d, want that packet's event lines including its timeout; output:\n%s", first[1], code, events)
	}

	garbage := filepath.Join(dir, "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.jsonl"), garbage} {
		for _, args := range [][]string{{path}, {"episodes", path}} {
			out, code := trace(args...)
			if code == 0 || strings.Count(out, "\n") != 1 || strings.Contains(out, "goroutine") {
				t.Errorf("disha-trace %v: exit %d, want non-zero with one line; output:\n%s", args, code, out)
			}
		}
	}

	// disha-sim buffers its writes, so a SIGKILLed run ends mid-line. The
	// lines before the tear are still a post-mortem; the same damage with
	// more lines after it is corruption.
	whole, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	tornBytes := whole[:len(whole)-7] // cuts into the final counters line
	torn, corrupt := filepath.Join(dir, "torn.jsonl"), filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(torn, tornBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, append(append([]byte(nil), tornBytes...), "\n{\"type\":\"meta\"}\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := trace("-episodes", "20", torn)
	if m := section.FindString(out); code != 0 || strings.Count(out, "disha-trace: warning: ") != 1 ||
		!strings.Contains(out, "torn final line") || m != section.FindString(post) || strings.Contains(out, "final counters") {
		t.Errorf("torn trace: exit %d, want 0 with one warning and the whole run's episode section but no counters; output:\n%s", code, out)
	}
	if out, code := trace(corrupt); code == 0 || strings.Count(out, "\n") != 1 {
		t.Errorf("undecodable line mid-file: exit %d, want non-zero with one line; output:\n%s", code, out)
	}
}
