package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.in) {
			t.Errorf("median reordered its input: %v -> %v", in, tc.in)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		in   []float64
		p    float64
		want float64
	}{
		{nil, 90, 0},
		{ten, 50, 5},  // rank ceil(5.0) = 5
		{ten, 90, 9},  // rank 9
		{ten, 91, 10}, // rank ceil(9.1) = 10
		{ten, 5, 1},   // rank ceil(0.5) = 1
		{ten, 100, 10},
		{[]float64{42}, 95, 42},
	} {
		if got := percentile(tc.in, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.in, tc.p, got, tc.want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, // the median of 19 has 9.5 beyond it
		{20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, // exactly ten beyond
		{120, 90}, // 12 beyond p90, 6 beyond p95
		{199, 90}, {200, 95},
		{1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Pooling weighs every block equally: the median of the pool is not the
// median (or mean) of the per-seed medians.
func TestPoolAcrossSeeds(t *testing.T) {
	perSeed := [][]float64{{1, 1, 1, 1, 1}, {9}, {9}}
	got := pool(perSeed)
	if want := []float64{1, 1, 1, 1, 1, 9, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pool = %v, want %v", got, want)
	}
	if m := median(got); m != 1 {
		t.Errorf("pooled median = %v, want 1 (the median of per-seed medians would be 9)", m)
	}
	if pool(nil) != nil {
		t.Error("pool(nil) != nil")
	}
}

func TestLatencyHist(t *testing.T) {
	var h latencyHist
	if h.mean() != 0 || h.percentile(95) != 0 {
		t.Fatal("empty histogram is not zero")
	}
	// 1..100 once each: mean 50.5, p95 = 95, p100 = 100; far beyond the
	// first allocation so growth is exercised.
	for c := int64(1); c <= 100; c++ {
		h.add(c)
	}
	h.add(-3) // clamped to 0
	if h.n != 101 || h.mean() != 5050.0/101 {
		t.Errorf("n=%d mean=%v", h.n, h.mean())
	}
	for _, tc := range []struct{ p, want float64 }{{1, 1}, {50, 50}, {95, 95}, {100, 100}} {
		// rank = ceil(p/100*101), and the extra 0 shifts every rank by one
		if got := h.percentile(tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},   // root: children cover 10..60 and 70..80
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},   // has a child of its own
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},   // overlaps 2 (parallel work): adds only 40..60
		{ID: 4, Parent: 1, StartNS: 70, EndNS: 80},   //
		{ID: 5, Parent: 2, StartNS: 15, EndNS: 25},   // grandchild: does not reduce the root
		{ID: 6, Parent: 4, StartNS: 60, EndNS: 200},  // spills outside its parent: clipped to 70..80
		{ID: 7, Parent: 0, StartNS: 300, EndNS: 300}, // empty
	}
	want := map[int]int64{1: 40, 2: 20, 3: 30, 4: 0, 5: 10, 6: 140, 7: 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfMSByName([]span{
		{ID: 1, Name: "a", StartNS: 0, EndNS: 3e6},
		{ID: 2, Parent: 1, Name: "b", StartNS: 0, EndNS: 1e6},
		{ID: 3, Parent: 1, Name: "b", StartNS: 2e6, EndNS: 3e6},
	})
	if byName["a"] != 1 || byName["b"] != 2 {
		t.Errorf("selfMSByName = %v, want a:1 b:2", byName)
	}
}

func TestSeedsFor(t *testing.T) {
	if got := seedsFor(1); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Errorf("seedsFor(1) = %v", got)
	}
	if got := seedsFor(2); !reflect.DeepEqual(got, []uint64{4, 5, 6}) {
		t.Errorf("seedsFor(2) = %v", got)
	}
	if _, err := parseSeeds("1,0"); err == nil {
		t.Error("parseSeeds accepted seed 0")
	}
	if got, err := parseSeeds("7, 9"); err != nil || !reflect.DeepEqual(got, []uint64{7, 9}) {
		t.Errorf("parseSeeds = %v, %v", got, err)
	}
}

func TestCSVStats(t *testing.T) {
	csv := "series,load,latency,throughput,latency_ci95,p95\n" +
		"a,0.2000,10.000,0.2000,1,20\n" +
		"a,0.4000,30.000,0.4000,1,40\n" +
		"series,load,latency,throughput,latency_ci95,p95\n" +
		"b,0.2000,50.000,0.6000,1,60\n"
	var c csvStats
	if err := c.add(csv); err != nil {
		t.Fatal(err)
	}
	if c.points != 3 || c.latency != 90 || c.p95 != 120 || math.Abs(c.throughput-1.2) > 1e-12 {
		t.Errorf("csvStats = %+v", c)
	}
	if err := c.add("series,load\nx,0.1\n"); err == nil {
		t.Error("a CSV without a latency column was accepted")
	}
}

func TestCompare(t *testing.T) {
	mf := &manifest{EndToEnd: []manifestItem{
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "lat", Unit: "cycles", Better: "lower", Bound: 0.02},
	}}
	file := func(rate, lat float64, failed int) *resultFile {
		return &resultFile{Seeds: []uint64{1}, Seconds: 1, Passes: []passResult{{
			Workload: "w", Correct: failed == 0, Attempted: 10, Failed: failed, Digest: []string{"d"},
			Metrics: map[string]metric{"rate": {Value: rate}, "lat": {Value: lat, Exact: true}},
		}}}
	}
	for _, tc := range []struct {
		name      string
		a, b      *resultFile
		code      int
		wantInOut string
	}{
		{"same", file(100, 50, 0), file(100, 50, 0), 0, "no end-to-end metric is worse"},
		{"noise within bound", file(100, 50, 0), file(91, 50, 0), 0, "within 10%"},
		{"rate breach", file(100, 50, 0), file(89, 50, 0), 1, "BREACH: 11.0% worse"},
		{"better is never a breach", file(100, 50, 0), file(150, 40, 0), 0, "DIFFERS (simulated"},
		{"exact metric moved inside its bound", file(100, 50, 0), file(100, 50.5, 0), 0, "DIFFERS (simulated"},
		{"exact metric breach", file(100, 50, 0), file(100, 52, 0), 1, "BREACH"},
		{"failed operations", file(100, 50, 0), file(100, 50, 1), 1, "1 failed operations"},
	} {
		var out bytes.Buffer
		if code := compareResults(mf, tc.a, tc.b, &out); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.wantInOut) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.wantInOut, out.String())
		}
	}
}
