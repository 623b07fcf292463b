package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestSweepResolvesThroughSpecFor builds the binary and pins that the CLI
// means by (-fig, -scale, -warmup, -measure, -seed) exactly what
// harness.SpecFor — the job server's and the fleet worker's resolver —
// means: the CSV it writes is byte-identical to the same tuple resolved and
// run in-process, and the names SpecFor rejects are one-line errors.
func TestSweepResolvesThroughSpecFor(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "disha-sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build disha-sweep: %v\n%s", err, out)
	}
	run := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("disha-sweep %v did not run", args)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}

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
	} {
		out, code := run(strings.Fields(bad.args)...)
		if code != bad.code || !strings.Contains(out, bad.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("disha-sweep %s: exit %d, want %d with one line containing %q; output:\n%s",
				bad.args, code, bad.code, bad.want, out)
		}
	}
}
