package harness

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/routing"
	"repro/internal/sim"
)

// Scale sets the simulation size of a figure reproduction. PaperScale
// matches Section 4.1 (16x16 torus, 4 VCs, 32-flit messages); SmallScale is
// an 8x8 configuration for fast regression runs and benchmarks with the
// same qualitative behaviour.
type Scale struct {
	Radix   int
	MsgLen  int
	Warmup  int
	Measure int
	Loads   []float64
	Seed    uint64
}

// PaperScale reproduces the paper's simulation model.
func PaperScale() Scale {
	return Scale{
		Radix:   16,
		MsgLen:  32,
		Warmup:  3000,
		Measure: 10000,
		Loads:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Seed:    0xd15ab1e,
	}
}

// SmallScale is a fast configuration for tests and benchmarks.
func SmallScale() Scale {
	return Scale{
		Radix:   8,
		MsgLen:  16,
		Warmup:  1000,
		Measure: 3000,
		Loads:   []float64{0.2, 0.4, 0.6, 0.8},
		Seed:    0xd15ab1e,
	}
}

// SpecFor resolves one of the canned paper figures by name at the named
// scale ("paper" or "small"; empty means paper), with optional overrides:
// positive warmup/measure replace the scale's cycle counts, a non-zero seed
// replaces the base seed, and a non-empty loads slice replaces the swept
// load rates (each must lie in (0, 1] and appear once: a repeated load would
// name its points twice). It is how the job server and
// disha-sweep turn a request's (figure, scale, overrides) into a spec; a fleet
// worker needs none of it, since every point key carries its whole spec.
func SpecFor(figure, scale string, warmup, measure int, seed uint64, loads []float64) (*Spec, error) {
	var sc Scale
	switch scale {
	case "", "paper":
		sc = PaperScale()
	case "small":
		sc = SmallScale()
	default:
		return nil, fmt.Errorf("unknown scale %q (want \"paper\" or \"small\")", scale)
	}
	if warmup > 0 {
		sc.Warmup = warmup
	}
	if measure > 0 {
		sc.Measure = measure
	}
	if seed != 0 {
		sc.Seed = seed
	}
	spec, ok := Figures(sc)[figure]
	if !ok {
		return nil, fmt.Errorf("unknown figure %q (want %s)", figure, strings.Join(FigureNames(), ", "))
	}
	if len(loads) > 0 {
		for i, l := range loads {
			if l <= 0 || l > 1 {
				return nil, fmt.Errorf("load %v out of (0, 1]", l)
			}
			if slices.Contains(loads[:i], l) {
				return nil, fmt.Errorf("load %v repeated", l)
			}
		}
		spec.Loads = loads
	}
	return spec, nil
}

func (sc Scale) torus() string { return fmt.Sprintf("torus-%dx%d", sc.Radix, sc.Radix) }

// dishaCurves returns the paper's two Disha configurations: minimal (M=0)
// and misrouting up to three (M=3), both with sequential Token recovery.
func dishaCurves(timeout sim.Cycle) []AlgSpec {
	return []AlgSpec{
		{Algorithm: routing.Disha(0), Recovery: true, Timeout: timeout},
		{Algorithm: routing.Disha(3), Recovery: true, Timeout: timeout},
	}
}

// avoidanceCurves returns the four deadlock-avoidance baselines of Section
// 4.3. Dally & Aoki is "the only one simulated with a minimum congestion
// selection function"; the rest use random selection.
func avoidanceCurves() []AlgSpec {
	return []AlgSpec{
		{Algorithm: routing.Duato()},
		{Algorithm: routing.DallyAoki(), Selection: routing.MinCongestion()},
		{Algorithm: routing.NegativeFirst()},
		{Algorithm: routing.DOR()},
	}
}

// Fig3a is the deadlock characterization experiment: token seizures
// normalized by delivered packets vs load for two widely varying time-out
// thresholds (4 and 64), uniform traffic, Disha with a maximum misroute of
// three. The paper's claim: under 2% of injected packets ever seize the
// Token below saturation.
func Fig3a(sc Scale) *Spec {
	return &Spec{
		Name:     "fig3a-deadlock-characterization",
		Topology: sc.torus(),
		Traffic:  "uniform",
		Algs: []AlgSpec{
			{Label: "disha-m3-tout4", Algorithm: routing.Disha(3), Recovery: true, Timeout: 4},
			{Label: "disha-m3-tout64", Algorithm: routing.Disha(3), Recovery: true, Timeout: 64},
		},
		Loads:          sc.Loads,
		MsgLen:         sc.MsgLen,
		Warmup:         sc.Warmup,
		Measure:        sc.Measure,
		Seed:           sc.Seed,
		WFGSampleEvery: 500,
	}
}

// Fig3b is the time-out selection experiment: latency vs load for T_out in
// {4, 8, 16, 64}. Small time-outs trigger false detections, large ones
// delay recovery; 8-16 is the paper's sweet spot.
func Fig3b(sc Scale) *Spec {
	algs := make([]AlgSpec, 0, 4)
	for _, tout := range []sim.Cycle{4, 8, 16, 64} {
		algs = append(algs, AlgSpec{
			Label:     "disha-m3-tout" + strconv.Itoa(int(tout)),
			Algorithm: routing.Disha(3),
			Recovery:  true,
			Timeout:   tout,
		})
	}
	return &Spec{
		Name:     "fig3b-timeout-selection",
		Topology: sc.torus(),
		Traffic:  "uniform",
		Algs:     algs,
		Loads:    sc.Loads,
		MsgLen:   sc.MsgLen,
		Warmup:   sc.Warmup,
		Measure:  sc.Measure,
		Seed:     sc.Seed,
	}
}

// comparisonSpec builds the Figures 4-7 shape: Disha M=0 and M=3 against
// the four avoidance baselines under the named traffic pattern.
func comparisonSpec(name string, sc Scale, pattern string) *Spec {
	return &Spec{
		Name:     name,
		Topology: sc.torus(),
		Traffic:  pattern,
		Algs:     append(dishaCurves(8), avoidanceCurves()...),
		Loads:    sc.Loads,
		MsgLen:   sc.MsgLen,
		Warmup:   sc.Warmup,
		Measure:  sc.Measure,
		Seed:     sc.Seed,
	}
}

// Fig4 compares all schemes under uniform traffic (paper: Disha M=0's
// latency rises linearly with load; M=3 saturates around 0.65 with Duato a
// distant second at 0.35; peak throughput ~35% over Duato and sustained).
func Fig4(sc Scale) *Spec { return comparisonSpec("fig4-uniform", sc, "uniform") }

// Fig5 compares all schemes under bit-reversal traffic (paper: Disha M=0
// saturates around 0.7, M=3 around 0.45; peak throughput ~50% over Duato).
func Fig5(sc Scale) *Spec {
	return comparisonSpec("fig5-bit-reversal", sc, "bit-reversal")
}

// Fig6 compares all schemes under matrix-transpose traffic (paper: Disha
// M=0 saturates around 0.7, more than twice Duato; peak ~50% over Duato but
// not sustained).
func Fig6(sc Scale) *Spec {
	return comparisonSpec("fig6-transpose", sc, "transpose")
}

// Fig7 compares all schemes under hot-spot traffic: 5% of all traffic is
// directed at one fixed hot node (node N/3) on top of uniform background. The paper
// observes early saturation for every scheme, Disha M=3 slightly ahead of
// Duato, and Disha M=0 behind everyone — the one case where misrouting
// helps by steering around the hot region.
func Fig7(sc Scale) *Spec {
	spec := comparisonSpec("fig7-hotspot", sc, "hotspot")
	// Hot-spot saturates early; sweep the low-load region more finely.
	spec.Loads = hotspotLoads(sc)
	return spec
}

func hotspotLoads(sc Scale) []float64 {
	if len(sc.Loads) > 0 && sc.Loads[len(sc.Loads)-1] <= 0.5 {
		return sc.Loads
	}
	return []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5}
}

// FigFullMesh is the full-mesh baseline experiment (beyond the paper): on a
// complete graph of sc.Radix nodes every minimal route is the single direct
// hop, so minimal routing is deadlock-free with zero extra virtual channels —
// recovery hardware is pure overhead there. The experiment makes that
// measurable: Disha with the Token and Deadlock Buffer armed against the same
// fully adaptive algorithm with recovery disabled ("minimal-vcfree"). The two
// curves should coincide, and the armed curve's token-seizure ratio should
// stay zero at every load.
func FigFullMesh(sc Scale) *Spec {
	return &Spec{
		Name:     "fullmesh-baseline",
		Topology: "fullmesh-" + strconv.Itoa(sc.Radix),
		Traffic:  "uniform",
		Algs: []AlgSpec{
			{Label: "disha-recovery", Algorithm: routing.Disha(0), Recovery: true, Timeout: 8},
			{Label: "minimal-vcfree", Algorithm: routing.Disha(0), Recovery: false},
		},
		Loads:   sc.Loads,
		MsgLen:  sc.MsgLen,
		VCs:     1,
		Warmup:  sc.Warmup,
		Measure: sc.Measure,
		Seed:    sc.Seed,
	}
}

// figureTable is the one list of canned figures, in name order. paper marks
// the figures of the paper itself.
var figureTable = []struct {
	name  string
	build func(Scale) *Spec
	paper bool
}{
	{"3a", Fig3a, true},
	{"3b", Fig3b, true},
	{"4", Fig4, true},
	{"5", Fig5, true},
	{"6", Fig6, true},
	{"7", Fig7, true},
	{"fullmesh", FigFullMesh, false},
}

// Figures returns all canned figure specs keyed by their short name.
func Figures(sc Scale) map[string]*Spec {
	out := make(map[string]*Spec, len(figureTable))
	for _, row := range figureTable {
		out[row.name] = row.build(sc)
	}
	return out
}

// FigureNames returns the figure names SpecFor accepts, sorted.
func FigureNames() []string { return figureNames(false) }

// PaperFigureNames returns the subset of FigureNames that reproduces a
// figure of the paper — what "all" means to disha-sweep.
func PaperFigureNames() []string { return figureNames(true) }

func figureNames(paperOnly bool) []string {
	var out []string
	for _, row := range figureTable {
		if row.paper || !paperOnly {
			out = append(out, row.name)
		}
	}
	return out
}
