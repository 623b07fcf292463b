package harness

import "testing"

// shortPoints is one point of each Figure 4 curve in the shape of a served
// job's points: small scale, 50 warm-up and measure measured cycles (100 in
// a served job), at load 0.2, the lightest load a served Figure 4 job runs.
// Such a point simulates little, so what it spends besides its cycles
// (network set-up, measuring the pattern, garbage) is the largest share of
// it. The returned run reports the packets the six points offered.
func shortPoints(tb testing.TB, measure int) func() int64 {
	spec, err := SpecFor("4", "small", 50, measure, 0, []float64{0.2})
	if err != nil {
		tb.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		tb.Fatal(err)
	}
	return func() int64 {
		var offered int64
		for _, a := range spec.Algs {
			pr, err := spec.RunPoint(a.Label, 0.2, spec.Seed, PointOptions{})
			if err != nil {
				tb.Fatal(err)
			}
			offered += pr.Offered
		}
		return offered
	}
}

// BenchmarkRunPointShort times the six short points; run it with -benchmem.
func BenchmarkRunPointShort(b *testing.B) {
	run := shortPoints(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestRunPointShortAllocs bounds what the six short points allocate past
// set-up: measuring 400 cycles instead of 100 may add at most three
// allocations per packet offered in the longer window's extra cycles. A
// packet is one allocation plus its share of queue and sample growth (1.57
// a packet); routing its header, choosing among the header's candidates and
// drawing its destination allocate nothing (10.2 a packet while the
// avoidance baselines' routes, the min-congestion selection and the
// coordinate patterns allocated). Set-up, whose count includes the
// runtime's own map allocations, cancels out of the difference.
func TestRunPointShortAllocs(t *testing.T) {
	short, long := shortPoints(t, 100), shortPoints(t, 400)
	var shortOffered, longOffered int64
	shortAllocs := testing.AllocsPerRun(3, func() { shortOffered = short() })
	longAllocs := testing.AllocsPerRun(3, func() { longOffered = long() })
	extra := longOffered - shortOffered
	if extra <= 0 {
		t.Fatalf("400 measured cycles offered %d packets, 100 offered %d", longOffered, shortOffered)
	}
	if perPacket := (longAllocs - shortAllocs) / float64(extra); perPacket > 3 {
		t.Errorf("300 more measured cycles allocate %v more times (%.2f a packet for %d packets), want at most 3 a packet",
			longAllocs-shortAllocs, perPacket, extra)
	}
}
