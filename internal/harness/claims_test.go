package harness

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The claims EXPERIMENTS.md's "Summary of claims" makes, each as a predicate
// over the committed paper-scale sweep in results/. A hand-edited number, or
// an ordering a regenerated sweep no longer has, fails its predicate; every
// row of the Summary names the predicates (or the tests) that check it.

// curve is one labelled curve of a committed CSV: each row read into a
// PointResult, and beside it the row's true_deadlock_rate, which a
// PointResult holds only as a count over WFGSamples.
type curve struct {
	points        []PointResult
	deadlockRates []float64
}

// figure is one committed results/fig*.csv, its curves by label. A label the
// file lacks reads as a curve with no points, which no predicate accepts: a
// renamed curve fails its claims instead of panicking.
type figure map[string]curve

// points returns label's points in load order.
func (f figure) points(label string) []PointResult { return f[label].points }

// point returns label's point at load, or ok false.
func (f figure) point(label string, load float64) (PointResult, bool) {
	for _, p := range f.points(label) {
		if math.Abs(p.Load-load) < 1e-9 {
			return p, true
		}
	}
	return PointResult{}, false
}

// readFigure parses a results CSV: blocks of rows, each under its own
// "series,load,..." header, every column one Result.CSV writes.
func readFigure(path string) (figure, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	fig := figure{}
	var header []string
	sc := bufio.NewScanner(file)
	for line := 1; sc.Scan(); line++ {
		cells := strings.Split(sc.Text(), ",")
		if cells[0] == "series" {
			header = cells
			continue
		}
		if len(cells) != len(header) {
			return nil, fmt.Errorf("%s:%d: %d cells under a %d-column header", path, line, len(cells), len(header))
		}
		var p PointResult
		var rate float64
		column := map[string]*float64{
			"load": &p.Load, "latency": &p.MeanLatency, "throughput": &p.Throughput,
			"latency_ci95": &p.LatencyCI95, "net_latency": &p.MeanNetLatency, "p95": &p.P95Latency,
			"seizure_ratio": &p.SeizureRatio, "throughput_ci95": &p.ThroughputCI95,
			"true_deadlock_rate": &rate,
		}
		for i, name := range header[1:] {
			dst, ok := column[name]
			if !ok {
				return nil, fmt.Errorf("%s:%d: unknown column %q", path, line, name)
			}
			if *dst, err = strconv.ParseFloat(cells[i+1], 64); err != nil {
				return nil, fmt.Errorf("%s:%d: %s: %v", path, line, name, err)
			}
		}
		c := fig[cells[0]]
		c.points = append(c.points, p)
		c.deadlockRates = append(c.deadlockRates, rate)
		fig[cells[0]] = c
	}
	return fig, sc.Err()
}

// The committed CSVs, by the figure they reproduce.
const (
	fig3a = "fig3a-deadlock-characterization.csv"
	fig3b = "fig3b-timeout-selection.csv"
	fig4  = "fig4-uniform.csv"
	fig5  = "fig5-bit-reversal.csv"
	fig6  = "fig6-transpose.csv"
	fig7  = "fig7-hotspot.csv"
)

// permutations are the three workloads of the "Disha saturates last" claim.
var permutations = []string{fig4, fig5, fig6}

// curves are the labels of Figures 4-7, disha-m0 first.
var curves = []string{"disha-m0", "disha-m3", "duato", "dally-aoki", "turn-negative-first", "dor"}

// claims is the table: a predicate's name, as the Summary cites it, and the
// check, which reads figures by file name and returns each violation.
var claims = []struct {
	name  string
	holds func(fig func(string) figure) []string
}{
	{"seizures-rare", func(fig func(string) figure) (bad []string) {
		// At most 1.4% of delivered packets seize the Token up to
		// saturation (load 0.4), and at most 2.6% past it.
		for label, c := range fig(fig3a) {
			for _, p := range c.points {
				limit := 0.014
				if p.Load > 0.4 {
					limit = 0.026
				}
				if r := p.SeizureRatio; r > limit {
					bad = append(bad, fmt.Sprintf("%s at %.2f: %.4f > %.3f", label, p.Load, r, limit))
				}
			}
		}
		return bad
	}},
	{"no-true-deadlock", func(fig func(string) figure) (bad []string) {
		for label, c := range fig(fig3a) {
			for i, p := range c.points {
				if r := c.deadlockRates[i]; r != 0 {
					bad = append(bad, fmt.Sprintf("%s at %.2f: true deadlock rate %g", label, p.Load, r))
				}
			}
		}
		return bad
	}},
	{"tout-flat-peak", func(fig func(string) figure) (bad []string) {
		// All four time-outs peak within 2% of one another.
		lo, hi := math.Inf(1), 0.0
		for _, c := range fig(fig3b) {
			lo, hi = min(lo, PeakThroughput(c.points)), max(hi, PeakThroughput(c.points))
		}
		if len(fig(fig3b)) != 4 || hi > 1.02*lo {
			bad = append(bad, fmt.Sprintf("%d curves peak between %.4f and %.4f", len(fig(fig3b)), lo, hi))
		}
		return bad
	}},
	{"tout-8-16-lowest-latency", func(fig func(string) figure) (bad []string) {
		// Below saturation, T_out 8 or 16 has the lowest mean latency.
		f := fig(fig3b)
		for _, load := range []float64{0.1, 0.2, 0.3, 0.4} {
			best, bestLat := "", math.Inf(1)
			for label := range f {
				if p, ok := f.point(label, load); ok && p.MeanLatency < bestLat {
					best, bestLat = label, p.MeanLatency
				}
			}
			if best != "disha-m3-tout8" && best != "disha-m3-tout16" {
				bad = append(bad, fmt.Sprintf("load %.1f: lowest latency is %q", load, best))
			}
		}
		return bad
	}},
	{"m0-highest-peak", func(fig func(string) figure) (bad []string) {
		for _, file := range permutations {
			f := fig(file)
			m0 := PeakThroughput(f.points("disha-m0"))
			for _, label := range curves[1:] {
				if peak := PeakThroughput(f.points(label)); peak >= m0 {
					bad = append(bad, fmt.Sprintf("%s: %s peaks at %.4f, disha-m0 at %.4f", file, label, peak, m0))
				}
			}
		}
		return bad
	}},
	{"m0-sustains-peak", func(fig func(string) figure) (bad []string) {
		// At 0.9 offered load disha-m0 still carries 99% of its peak.
		for _, file := range permutations {
			peak := PeakThroughput(fig(file).points("disha-m0"))
			if p, ok := fig(file).point("disha-m0", 0.9); !ok || p.Throughput < 0.99*peak {
				bad = append(bad, fmt.Sprintf("%s: %.4f at 0.9 against a %.4f peak", file, p.Throughput, peak))
			}
		}
		return bad
	}},
	{"m0-over-duato-margins", func(fig func(string) figure) (bad []string) {
		// The peak margins over Duato the Summary quotes: +4/+6/+11%.
		for i, want := range []float64{4, 6, 11} {
			f := fig(permutations[i])
			margin := float64(100 * (PeakThroughput(f.points("disha-m0"))/PeakThroughput(f.points("duato")) - 1))
			if math.Abs(margin-want) > 0.5 {
				bad = append(bad, fmt.Sprintf("%s: margin %+.1f%%, quoted %+.0f%%", permutations[i], margin, want))
			}
		}
		return bad
	}},
	{"m0-saturation-vs-duato", func(fig func(string) figure) (bad []string) {
		// By the 3x-latency criterion disha-m0 ties Duato at 0.50 under
		// uniform and bit-reversal and saturates first, 0.40 against
		// 0.50, under transpose.
		want := map[string][2]float64{fig4: {0.5, 0.5}, fig5: {0.5, 0.5}, fig6: {0.4, 0.5}}
		for _, file := range permutations {
			f := fig(file)
			got := [2]float64{SaturationLoad(f.points("disha-m0"), 3), SaturationLoad(f.points("duato"), 3)}
			if math.Abs(got[0]-want[file][0]) > 1e-9 || math.Abs(got[1]-want[file][1]) > 1e-9 {
				bad = append(bad, fmt.Sprintf("%s: disha-m0 and duato saturate at %v, quoted %v", file, got, want[file]))
			}
		}
		return bad
	}},
	{"m3-below-m0", func(fig func(string) figure) (bad []string) {
		for _, file := range permutations {
			f := fig(file)
			if m3, m0 := PeakThroughput(f.points("disha-m3")), PeakThroughput(f.points("disha-m0")); m3 >= m0 {
				bad = append(bad, fmt.Sprintf("%s: disha-m3 peaks at %.4f, disha-m0 at %.4f", file, m3, m0))
			}
		}
		return bad
	}},
	{"hotspot-m3-above-m0-past-saturation", func(fig func(string) figure) (bad []string) {
		// Under hot spot the order inverts past saturation (loads 0.4 and
		// 0.5), while disha-m0 keeps the highest peak of all.
		f := fig(fig7)
		for _, load := range []float64{0.4, 0.5} {
			m3, ok3 := f.point("disha-m3", load)
			m0, ok0 := f.point("disha-m0", load)
			if !ok3 || !ok0 || m3.Throughput <= m0.Throughput {
				bad = append(bad, fmt.Sprintf("load %.1f: disha-m3 %.4f, disha-m0 %.4f", load, m3.Throughput, m0.Throughput))
			}
		}
		m0 := PeakThroughput(f.points("disha-m0"))
		for _, label := range curves[1:] {
			if peak := PeakThroughput(f.points(label)); peak >= m0 {
				bad = append(bad, fmt.Sprintf("%s peaks at %.4f, disha-m0 at %.4f", label, peak, m0))
			}
		}
		return bad
	}},
	{"hotspot-early-saturation", func(fig func(string) figure) (bad []string) {
		// Every curve saturates (3x zero-load latency) by 0.20 offered load.
		f := fig(fig7)
		for _, label := range curves {
			if sat := SaturationLoad(f.points(label), 3); sat > 0.2+1e-9 {
				bad = append(bad, fmt.Sprintf("%s saturates at %.2f", label, sat))
			}
		}
		return bad
	}},
	{"hotspot-m3-ties-duato", func(fig func(string) figure) (bad []string) {
		// Past saturation disha-m3 and Duato are within 0.01 of each other.
		f := fig(fig7)
		for _, load := range []float64{0.4, 0.5} {
			m3, ok3 := f.point("disha-m3", load)
			d, okd := f.point("duato", load)
			if !ok3 || !okd || math.Abs(m3.Throughput-d.Throughput) > 0.01 {
				bad = append(bad, fmt.Sprintf("load %.1f: disha-m3 %.4f, duato %.4f", load, m3.Throughput, d.Throughput))
			}
		}
		return bad
	}},
	{"dor-above-turn", func(fig func(string) figure) (bad []string) {
		// Under uniform DOR peaks above the Turn model: 0.388 vs 0.285.
		f := fig(fig4)
		dor, turn := PeakThroughput(f.points("dor")), PeakThroughput(f.points("turn-negative-first"))
		if dor <= turn || math.Abs(dor-0.388) > 0.001 || math.Abs(turn-0.285) > 0.001 {
			bad = append(bad, fmt.Sprintf("dor peaks at %.4f, turn at %.4f; quoted 0.388 vs 0.285", dor, turn))
		}
		return bad
	}},
	{"duato-dally-split", func(fig func(string) figure) (bad []string) {
		// Duato peaks above Dally & Aoki under uniform and bit-reversal,
		// below it under transpose.
		for i, file := range permutations {
			f := fig(file)
			duato, dally := PeakThroughput(f.points("duato")), PeakThroughput(f.points("dally-aoki"))
			if (duato > dally) != (i < 2) {
				bad = append(bad, fmt.Sprintf("%s: duato peaks at %.4f, dally-aoki at %.4f", file, duato, dally))
			}
		}
		return bad
	}},
}

// resultsDir is where the committed sweep lives, relative to this package.
const resultsDir = "../../results"

// readResults reads every committed CSV, by file name.
func readResults(t *testing.T) map[string]figure {
	figs := map[string]figure{}
	for _, file := range []string{fig3a, fig3b, fig4, fig5, fig6, fig7} {
		f, err := readFigure(filepath.Join(resultsDir, file))
		if err != nil {
			t.Fatal(err)
		}
		figs[file] = f
	}
	return figs
}

// TestClaimsHoldOnCommittedResults evaluates every claim against the
// committed CSVs.
func TestClaimsHoldOnCommittedResults(t *testing.T) {
	figs := readResults(t)
	fig := func(file string) figure { return figs[file] }
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range c.holds(fig) {
				t.Error(v)
			}
		})
	}
}

// TestClaimsFailOnEditedCells edits one cell of a committed CSV and requires
// the predicate that reads it to fail: a true_deadlock_rate of 0.5, which the
// reader keeps as a rate rather than a count, and a Duato throughput above
// disha-m0's peak.
func TestClaimsFailOnEditedCells(t *testing.T) {
	for _, tc := range []struct {
		claim, file, row, column, value string
	}{
		{"no-true-deadlock", fig3a, "disha-m3-tout4,0.3000", "true_deadlock_rate", "0.5"},
		{"m0-highest-peak", fig4, "duato,0.5000", "throughput", "0.6000"},
	} {
		t.Run(tc.claim, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(resultsDir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(data), "\n")
			col := slices.Index(strings.Split(lines[0], ","), tc.column)
			edited := 0
			for i, line := range lines {
				if strings.HasPrefix(line, tc.row+",") && col > 0 {
					cells := strings.Split(line, ",")
					cells[col] = tc.value
					lines[i] = strings.Join(cells, ",")
					edited++
				}
			}
			if edited != 1 {
				t.Fatalf("%s: %d rows %q with a %s column", tc.file, edited, tc.row, tc.column)
			}
			path := filepath.Join(t.TempDir(), tc.file)
			if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			figs := readResults(t)
			if figs[tc.file], err = readFigure(path); err != nil {
				t.Fatal(err)
			}
			var bad []string
			for _, c := range claims {
				if c.name == tc.claim {
					bad = c.holds(func(file string) figure { return figs[file] })
				}
			}
			if len(bad) == 0 {
				t.Fatalf("%s holds with %s's %s at %s set to %s", tc.claim, tc.file, tc.column, tc.row, tc.value)
			}
			t.Log(bad)
		})
	}
}

// TestSummaryNamesEveryClaim reads EXPERIMENTS.md's "Summary of claims":
// every row must name what checks it in its last column, each name a claim
// predicate above or a test declared in the repository, and every predicate
// must be named by some row.
func TestSummaryNamesEveryClaim(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Summary of claims\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"Summary of claims\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	predicates := map[string]bool{}
	for _, c := range claims {
		predicates[c.name] = true
	}
	named := map[string]bool{}
	rows := 0
	code := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|--") || strings.HasPrefix(line, "| Paper claim") {
			continue
		}
		rows++
		cells := strings.Split(strings.Trim(line, "| "), "|")
		names := code.FindAllStringSubmatch(cells[len(cells)-1], -1)
		if len(cells) < 3 || len(names) == 0 {
			t.Errorf("row names no predicate: %s", line)
			continue
		}
		for _, m := range names {
			name := m[1]
			switch {
			case predicates[name]:
				named[name] = true
			case strings.HasPrefix(name, "Test"):
				if !testDeclared(t, name) {
					t.Errorf("row cites %s, which no _test.go file declares", name)
				}
			default:
				t.Errorf("row names %q, which is neither a claim predicate nor a test", name)
			}
		}
	}
	if rows == 0 {
		t.Fatal("the Summary of claims has no rows")
	}
	for _, c := range claims {
		if !named[c.name] {
			t.Errorf("predicate %s has no row in the Summary of claims", c.name)
		}
	}
}

// testDeclared reports whether some _test.go file of the module declares
// func name(t *testing.T).
func testDeclared(t *testing.T, name string) bool {
	decl := "func " + name + "(t *testing.T)"
	found := false
	err := filepath.WalkDir("../..", func(path string, d os.DirEntry, err error) error {
		if err != nil || found {
			return err
		}
		if d.IsDir() && path != "../.." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git and build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		found = err == nil && strings.Contains(string(src), decl)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}
