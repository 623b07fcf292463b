package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 20; n++ {
		for i := 0; i < 500; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 0.05*expect {
			t.Errorf("bucket %d count %d deviates >5%% from %v", i, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += float64(f)
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	const p, draws = 0.3, 60000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("Bernoulli(%v) empirical rate %v", p, rate)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(21)
	child := parent.Split()
	// The child stream must not simply mirror the parent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("child mirrored parent on %d draws", same)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	if c.Tick() != 1 || c.Now() != 1 {
		t.Fatal("Tick did not advance to 1")
	}
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if c.Now() != 11 {
		t.Fatalf("clock at %d, want 11", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

// TestHitIsFloat64Comparison sets the generator so that its next 53-bit draw
// lands on, just below and just above each chance's threshold, and checks
// that Hit agrees with the float comparison Float64() < p it replaces.
func TestHitIsFloat64Comparison(t *testing.T) {
	// xoshiro256**'s output is rotl(s1*5, 7)*9: invert it for s1.
	const inv5, inv9 = 0xcccccccccccccccd, 0x8e38e38e38e38e39
	ulp := math.Ldexp(1, -53)
	k := float64(1<<51+12345) * ulp
	for _, p := range []float64{ulp, 2 * ulp, math.Nextafter(k, 0), k, math.Nextafter(k, 1), 0.5, 1 - ulp, 0.0028, 1e-300} {
		thr := uint64(ChanceOf(p))
		for _, x := range []uint64{thr - 2, thr - 1, thr, thr + 1} {
			if x >= 1<<53 {
				continue
			}
			y := x<<11 | 0x5a5
			s1 := (y*inv9>>7 | y*inv9<<57) * inv5
			a := &RNG{s: [4]uint64{3, s1, 5, 7}}
			b := *a
			hit := a.Hit(ChanceOf(p))
			f := b.Float64()
			if f != float64(x)/(1<<53) {
				t.Fatalf("p=%v: crafted draw %v, want %d/2^53", p, f, x)
			}
			if hit != (f < p) {
				t.Errorf("p=%v draw %d/2^53: Hit %v, Float64() < p %v", p, x, hit, f < p)
			}
			if a.s != b.s {
				t.Errorf("p=%v: Hit and Float64 consumed different draws", p)
			}
		}
	}
	for _, p := range []float64{0, -1, math.NaN(), 1, 2} {
		r := NewRNG(3)
		before := r.s
		if r.Hit(ChanceOf(p)) != (p >= 1) || r.s != before {
			t.Errorf("p=%v: want %v without a draw", p, p >= 1)
		}
	}
}
