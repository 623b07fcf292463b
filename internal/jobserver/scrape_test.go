package jobserver

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics_scrape.txt from the current server")

// scrapeFile pins GET /metrics after one tinyReq job, without the sample
// lines of the go_* families and of the two wall-clock engine gauges.
// Regenerate after an intentional change to what the server exports with
//
//	go test ./internal/jobserver -run TestMetricsScrapePinned -update-golden
const scrapeFile = "testdata/metrics_scrape.txt"

// TestMetricsScrapePinned holds the job server's /metrics text — the
// serve_jobs_* and engine_* families' help, type, order and value — byte
// for byte to the scrape after one finished job.
func TestMetricsScrapePinned(t *testing.T) {
	_, ts := startServer(t)
	st := submit(t, ts, tinyReq())
	waitDone(t, ts, st.ID)
	var kept []string
	for _, line := range strings.SplitAfter(scrape(t, ts), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, "go_") && name != "engine_elapsed_seconds" && name != "engine_eta_seconds" {
			kept = append(kept, line)
		}
	}
	got := strings.Join(kept, "")
	if *updateGolden {
		if err := os.WriteFile(scrapeFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scrapeFile)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update-golden): %v", scrapeFile, err)
	}
	if got != string(want) {
		t.Fatalf("scrape differs from %s:\n got:\n%s\nwant:\n%s", scrapeFile, got, want)
	}
}
