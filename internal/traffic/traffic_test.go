package traffic

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

func topo16() topology.Topology { return topology.MustTorus(16, 16) }

func TestUniformNeverSelf(t *testing.T) {
	topo := topo16()
	p := Uniform(topo)
	r := sim.NewRNG(1)
	for i := 0; i < 5000; i++ {
		src := topology.Node(r.Intn(topo.Nodes()))
		if p.Dest(src, r) == src {
			t.Fatal("uniform produced a self-addressed packet")
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	p := Uniform(topo)
	r := sim.NewRNG(2)
	seen := map[topology.Node]bool{}
	src := topology.Node(5)
	for i := 0; i < 4000; i++ {
		seen[p.Dest(src, r)] = true
	}
	if len(seen) != topo.Nodes()-1 {
		t.Fatalf("uniform reached %d destinations, want %d", len(seen), topo.Nodes()-1)
	}
}

func TestBitReversal(t *testing.T) {
	topo := topo16()
	p, err := BitReversal(topo)
	if err != nil {
		t.Fatal(err)
	}
	// 256 nodes = 8 bits. Node 0b00000001 -> 0b10000000.
	if got := p.Dest(topology.Node(1), nil); got != topology.Node(128) {
		t.Errorf("reversal(1) = %d, want 128", got)
	}
	if got := p.Dest(topology.Node(0b10110010), nil); got != topology.Node(0b01001101) {
		t.Errorf("reversal(0b10110010) = %#b", int(got))
	}
	// Reversal is an involution.
	f := func(raw uint16) bool {
		n := topology.Node(int(raw) % topo.Nodes())
		return p.Dest(p.Dest(n, nil), nil) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitReversalRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := BitReversal(topology.MustTorus(3, 3)); err == nil {
		t.Fatal("bit-reversal on 9 nodes should fail")
	}
}

func TestTranspose(t *testing.T) {
	topo := topo16()
	p, err := Transpose(topo)
	if err != nil {
		t.Fatal(err)
	}
	src := topo.NodeAt(topology.Coord{3, 11})
	want := topo.NodeAt(topology.Coord{11, 3})
	if got := p.Dest(src, nil); got != want {
		t.Errorf("transpose(3,11) = %v", topo.Coord(got))
	}
	// Diagonal nodes map to themselves.
	diag := topo.NodeAt(topology.Coord{7, 7})
	if p.Dest(diag, nil) != diag {
		t.Error("transpose diagonal should be self")
	}
}

func TestTransposeRejectsNonSquare(t *testing.T) {
	if _, err := Transpose(topology.MustTorus(4, 8)); err == nil {
		t.Fatal("transpose on non-square should fail")
	}
	if _, err := Transpose(topology.MustTorus(4, 4, 4)); err == nil {
		t.Fatal("transpose on 3D should fail")
	}
}

func TestHotSpotFraction(t *testing.T) {
	topo := topo16()
	spot := topology.Node(77)
	p := HotSpot(Uniform(topo), spot, 0.05)
	r := sim.NewRNG(3)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if p.Dest(topology.Node(0), r) == spot {
			hits++
		}
	}
	rate := float64(hits) / draws
	// 5% explicit plus ~1/255 of the uniform remainder.
	want := 0.05 + 0.95/255
	if math.Abs(rate-want) > 0.005 {
		t.Errorf("hot node rate %v, want ~%v", rate, want)
	}
}

func TestComplement(t *testing.T) {
	topo := topo16()
	p := Complement(topo)
	src := topo.NodeAt(topology.Coord{3, 11})
	want := topo.NodeAt(topology.Coord{12, 4})
	if got := p.Dest(src, nil); got != want {
		t.Errorf("complement(3,11) = %v", topo.Coord(got))
	}
	f := func(raw uint16) bool {
		n := topology.Node(int(raw) % topo.Nodes())
		return p.Dest(p.Dest(n, nil), nil) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTornado(t *testing.T) {
	topo := topo16()
	p := Tornado(topo)
	src := topo.NodeAt(topology.Coord{0, 5})
	want := topo.NodeAt(topology.Coord{7, 5}) // +ceil(16/2)-1 = +7
	if got := p.Dest(src, nil); got != want {
		t.Errorf("tornado(0,5) = %v", topo.Coord(got))
	}
	src2 := topo.NodeAt(topology.Coord{12, 5})
	want2 := topo.NodeAt(topology.Coord{3, 5})
	if got := p.Dest(src2, nil); got != want2 {
		t.Errorf("tornado(12,5) = %v", topo.Coord(got))
	}
}

func TestBitShuffle(t *testing.T) {
	topo := topo16()
	p, err := BitShuffle(topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Dest(topology.Node(0b10000000), nil); got != topology.Node(0b00000001) {
		t.Errorf("shuffle(0x80) = %#b", int(got))
	}
	if got := p.Dest(topology.Node(0b01000001), nil); got != topology.Node(0b10000010) {
		t.Errorf("shuffle(0x41) = %#b", int(got))
	}
	if _, err := BitShuffle(topology.MustTorus(3, 3)); err == nil {
		t.Fatal("shuffle on 9 nodes should fail")
	}
}

func TestNeighbor(t *testing.T) {
	topo := topo16()
	p := Neighbor(topo)
	src := topo.NodeAt(topology.Coord{15, 2})
	want := topo.NodeAt(topology.Coord{0, 2})
	if got := p.Dest(src, nil); got != want {
		t.Errorf("neighbor wrap = %v", topo.Coord(got))
	}
	msh := topology.MustMesh(4, 4)
	pm := Neighbor(msh)
	edge := msh.NodeAt(topology.Coord{3, 1})
	back := msh.NodeAt(topology.Coord{2, 1})
	if got := pm.Dest(edge, nil); got != back {
		t.Errorf("neighbor mesh edge = %v", msh.Coord(got))
	}
}

func TestPatternNames(t *testing.T) {
	topo := topo16()
	br, _ := BitReversal(topo)
	tr, _ := Transpose(topo)
	sh, _ := BitShuffle(topo)
	for _, tc := range []struct {
		p    Pattern
		want string
	}{
		{Uniform(topo), "uniform"},
		{br, "bit-reversal"},
		{tr, "transpose"},
		{HotSpot(Uniform(topo), 0, 0.05), "hotspot-5%-uniform"},
		{Complement(topo), "complement"},
		{Tornado(topo), "tornado"},
		{sh, "bit-shuffle"},
		{Neighbor(topo), "neighbor"},
	} {
		if tc.p.Name() != tc.want {
			t.Errorf("name %q, want %q", tc.p.Name(), tc.want)
		}
	}
	// ByName parses the names above (hotspot's Name() also carries its
	// parameters), and is the one place a coordinate-free graph is refused.
	if len(Names()) != 8 {
		t.Errorf("Names() = %v, want the 8 patterns above", Names())
	}
	mesh := topology.MustFullMesh(16)
	for _, name := range Names() {
		p, err := ByName(name, topo, 0.05)
		if err != nil || (p.Name() != name && !(name == "hotspot" && p.Name() == "hotspot-5%-uniform")) {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
		_, cubeErr := Cube(mesh, name+" traffic")
		_, err = ByName(name, mesh, 0.05)
		needsCube := name == "transpose" || name == "complement" || name == "tornado" || name == "neighbor"
		if needsCube != (err != nil) || (err != nil && !strings.Contains(err.Error(), cubeErr.Error())) {
			t.Errorf("ByName(%q) on %s: err = %v", name, mesh.Name(), err)
		}
	}
	if _, err := ByName("nope", topo, 0); err == nil || !strings.Contains(err.Error(), "bit-shuffle") {
		t.Errorf("ByName(nope): err = %v, want one listing the accepted names", err)
	}
	if _, err := ByName("hotspot", topo, 1.5); err == nil {
		t.Error("ByName(hotspot, 1.5) accepted")
	}
}

func TestTotalChannels(t *testing.T) {
	if got := TotalChannels(topo16()); got != 256*4 {
		t.Errorf("torus channels = %d, want 1024", got)
	}
	// 4x4 mesh: 2 dims * 2 directions * (k-1)*k links = 2*2*12 = 48.
	if got := TotalChannels(topology.MustMesh(4, 4)); got != 48 {
		t.Errorf("mesh channels = %d, want 48", got)
	}
}

func TestMeanDistanceUniform(t *testing.T) {
	// Uniform on a 16-ring torus: mean per-dim distance over the 255 other
	// nodes; analytically E[dist] = 2 * (sum of ring distances)/... just
	// check against brute force.
	topo := topo16()
	var sum, cnt float64
	for a := 0; a < topo.Nodes(); a++ {
		for b := 0; b < topo.Nodes(); b++ {
			if a == b {
				continue
			}
			sum += float64(topo.Distance(topology.Node(a), topology.Node(b)))
			cnt++
		}
	}
	exact := sum / cnt
	st := MeasureMean(topo, Uniform(topo), 128)
	if math.Abs(st.MeanDistance-exact) > 0.15 {
		t.Errorf("measured mean distance %v, exact %v", st.MeanDistance, exact)
	}
	if math.Abs(st.GeneratingFraction-1) > 1e-9 {
		t.Errorf("uniform generating fraction %v", st.GeneratingFraction)
	}
}

func TestMeanDistanceTransposeExcludesDiagonal(t *testing.T) {
	topo := topo16()
	tr, _ := Transpose(topo)
	st := MeasureMean(topo, tr, 1)
	wantFrac := float64(256-16) / 256
	if math.Abs(st.GeneratingFraction-wantFrac) > 1e-9 {
		t.Errorf("transpose generating fraction %v, want %v", st.GeneratingFraction, wantFrac)
	}
	if st.MeanDistance <= 0 {
		t.Error("transpose mean distance must be positive")
	}
}

func TestInjectionProbability(t *testing.T) {
	topo := topo16()
	// Uniform, 32-flit messages, load 1.0: aggregate = 1024/(32*8) = 4
	// packets/cycle over 256 nodes = 1/64 per node.
	p, err := InjectionProbability(topo, Uniform(topo), 32, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1.0/64) > 0.002 {
		t.Errorf("full-load probability %v, want ~%v", p, 1.0/64)
	}
	half, err := InjectionProbability(topo, Uniform(topo), 32, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half-p/2) > 1e-12 {
		t.Error("injection probability must scale linearly with load")
	}
}

func TestInjectionProbabilityErrors(t *testing.T) {
	topo := topo16()
	if _, err := InjectionProbability(topo, Uniform(topo), 0, 0.5); err == nil {
		t.Error("zero message length should fail")
	}
	if _, err := InjectionProbability(topo, Uniform(topo), 32, -0.1); err == nil {
		t.Error("negative load should fail")
	}
	// Absurd load requiring >1 packet/node/cycle must fail.
	if _, err := InjectionProbability(topo, Uniform(topo), 1, 50); err == nil {
		t.Error("overload should fail")
	}
}

func TestSourceGeneration(t *testing.T) {
	topo := topo16()
	src := NewSource(5, Uniform(topo), sim.NewRNG(9), 0.25, 32)
	var id packet.ID
	nextID := func() packet.ID { id++; return id }
	made := 0
	const cycles = 20000
	for c := 0; c < cycles; c++ {
		if p := src.Generate(sim.Cycle(c), nextID); p != nil {
			made++
			if p.Src != 5 || p.Dst == 5 || p.Length != 32 || p.CreatedAt != sim.Cycle(c) {
				t.Fatalf("bad packet %v", p)
			}
		}
	}
	rate := float64(made) / cycles
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("generation rate %v, want ~0.25", rate)
	}
	if src.Offered != int64(made) {
		t.Errorf("Offered = %d, generated %d", src.Offered, made)
	}
}

func TestSourceStop(t *testing.T) {
	topo := topo16()
	src := NewSource(0, Uniform(topo), sim.NewRNG(9), 1.0, 4)
	nextID := func() packet.ID { return 1 }
	if src.Generate(0, nextID) == nil {
		t.Fatal("prob 1.0 source did not generate")
	}
	src.Stop()
	if !src.Stopped() {
		t.Fatal("Stopped false after Stop")
	}
	for i := 0; i < 100; i++ {
		if src.Generate(sim.Cycle(i), nextID) != nil {
			t.Fatal("stopped source generated a packet")
		}
	}
}

func TestSourceSelfAddressDiscarded(t *testing.T) {
	topo := topo16()
	tr, _ := Transpose(topo)
	diag := topo.NodeAt(topology.Coord{4, 4})
	src := NewSource(diag, tr, sim.NewRNG(9), 1.0, 4)
	nextID := func() packet.ID { return 1 }
	for i := 0; i < 50; i++ {
		if src.Generate(sim.Cycle(i), nextID) != nil {
			t.Fatal("diagonal transpose node generated a packet")
		}
	}
	if src.Offered != 0 {
		t.Error("discarded draws must not count as offered")
	}
}

func TestBurstConfig(t *testing.T) {
	if (BurstConfig{}).Valid() || (BurstConfig{MeanBurst: 10}).Valid() {
		t.Fatal("incomplete burst configs must be invalid")
	}
	b := BurstConfig{MeanBurst: 20, MeanIdle: 80}
	if !b.Valid() || math.Abs(b.DutyCycle()-0.2) > 1e-12 {
		t.Fatalf("duty cycle %v, want 0.2", b.DutyCycle())
	}
}

func TestBurstySourcePreservesLoad(t *testing.T) {
	topo := topo16()
	const prob = 0.05
	const cycles = 200000
	run := func(burst bool) float64 {
		src := NewSource(3, Uniform(topo), sim.NewRNG(77), prob, 8)
		if burst {
			if err := src.SetBursty(BurstConfig{MeanBurst: 30, MeanIdle: 70}); err != nil {
				t.Fatal(err)
			}
		}
		var id packet.ID
		nextID := func() packet.ID { id++; return id }
		made := 0
		for c := 0; c < cycles; c++ {
			if src.Generate(sim.Cycle(c), nextID) != nil {
				made++
			}
		}
		return float64(made) / cycles
	}
	plain, bursty := run(false), run(true)
	if math.Abs(plain-prob) > 0.005 {
		t.Fatalf("plain rate %v", plain)
	}
	// Same long-run load within tolerance (burst variance is higher).
	if math.Abs(bursty-prob) > 0.01 {
		t.Fatalf("bursty long-run rate %v, want ~%v", bursty, prob)
	}
}

func TestBurstySourceIsActuallyBursty(t *testing.T) {
	topo := topo16()
	src := NewSource(3, Uniform(topo), sim.NewRNG(5), 0.05, 8)
	if err := src.SetBursty(BurstConfig{MeanBurst: 25, MeanIdle: 75}); err != nil {
		t.Fatal(err)
	}
	var id packet.ID
	nextID := func() packet.ID { id++; return id }
	// Count generation per 100-cycle window; bursty traffic must show both
	// silent windows and windows far above the mean.
	var silent, heavy int
	for w := 0; w < 400; w++ {
		made := 0
		for c := 0; c < 100; c++ {
			if src.Generate(sim.Cycle(w*100+c), nextID) != nil {
				made++
			}
		}
		if made == 0 {
			silent++
		}
		if made >= 10 { // 2x the long-run mean of 5 per window
			heavy++
		}
	}
	if silent < 20 || heavy < 20 {
		t.Fatalf("not bursty enough: %d silent, %d heavy windows of 400", silent, heavy)
	}
	if err := src.SetBursty(BurstConfig{}); err == nil {
		t.Fatal("invalid burst config accepted")
	}
}

// TestBurstySourceClampsExtremeConfigs documents the SetBursty clamp: when
// prob/DutyCycle exceeds 1 the in-burst probability saturates at 1, so the
// long-run offered load drops to the duty cycle instead of matching the
// Bernoulli baseline. Callers wanting load-preserving bursts must keep
// prob <= DutyCycle.
func TestBurstySourceClampsExtremeConfigs(t *testing.T) {
	topo := topo16()
	const prob = 0.3
	cfg := BurstConfig{MeanBurst: 10, MeanIdle: 90} // duty cycle 0.1 < prob
	src := NewSource(3, Uniform(topo), sim.NewRNG(11), prob, 8)
	if err := src.SetBursty(cfg); err != nil {
		t.Fatal(err)
	}
	if src.burstProb != 1 {
		t.Fatalf("in-burst probability %v, want clamp at 1", src.burstProb)
	}
	var id packet.ID
	nextID := func() packet.ID { id++; return id }
	const cycles = 200000
	made := 0
	for c := 0; c < cycles; c++ {
		if src.Generate(sim.Cycle(c), nextID) != nil {
			made++
		}
	}
	rate := float64(made) / cycles
	// Injecting with probability 1 while bursting delivers exactly the duty
	// cycle (minus the ~0.4% uniform self-address discard), not prob.
	if math.Abs(rate-cfg.DutyCycle()) > 0.01 {
		t.Fatalf("clamped long-run rate %v, want ~duty cycle %v", rate, cfg.DutyCycle())
	}
	if rate >= prob/2 {
		t.Fatalf("clamped rate %v suspiciously close to the unclamped target %v", rate, prob)
	}
}

// oneNodeTopo wraps a real topology but reports a single node — the
// degenerate case NewUniform must reject (Dest would panic in Intn(0)).
type oneNodeTopo struct{ topology.Topology }

func (oneNodeTopo) Nodes() int { return 1 }

func TestNewUniformRejectsSingleNode(t *testing.T) {
	if _, err := NewUniform(oneNodeTopo{topo16()}); err == nil {
		t.Fatal("NewUniform accepted a 1-node topology")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform did not panic on a 1-node topology")
		}
	}()
	Uniform(oneNodeTopo{topo16()})
}

func TestNewHotSpotValidatesFraction(t *testing.T) {
	topo := topo16()
	base := Uniform(topo)
	for _, frac := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := NewHotSpot(base, 0, frac); err == nil {
			t.Fatalf("NewHotSpot accepted fraction %v", frac)
		}
	}
	if _, err := NewHotSpot(nil, 0, 0.05); err == nil {
		t.Fatal("NewHotSpot accepted a nil base")
	}
	for _, frac := range []float64{0, 0.05, 1} {
		if _, err := NewHotSpot(base, 0, frac); err != nil {
			t.Fatalf("NewHotSpot rejected valid fraction %v: %v", frac, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HotSpot did not panic on an out-of-range fraction")
		}
	}()
	HotSpot(base, 0, 2)
}
