package routing

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fakeView is a minimal View for algorithm unit tests. busy maps
// (port, vc) -> occupant dimension-reversal count; absent entries are free.
type fakeView struct {
	node topology.Node
	topo topology.Topology
	vcs  int
	busy map[[2]int]int
}

func newFakeView(topo topology.Topology, node topology.Node, vcs int) *fakeView {
	return &fakeView{node: node, topo: topo, vcs: vcs, busy: map[[2]int]int{}}
}

func (f *fakeView) Node() topology.Node { return f.node }
func (f *fakeView) Topo() topology.Graph {
	return f.topo
}
func (f *fakeView) VCs() int { return f.vcs }
func (f *fakeView) LinkExists(port int) bool {
	_, ok := f.topo.Neighbor(f.node, port)
	return ok
}
func (f *fakeView) OutputVCFree(port, vc int) bool {
	_, busy := f.busy[[2]int{port, vc}]
	return !busy
}
func (f *fakeView) OccupantDimReversals(port, vc int) (int, bool) {
	dr, busy := f.busy[[2]int{port, vc}]
	return dr, busy
}
func (f *fakeView) FreeVCs(port int) int {
	n := 0
	for vc := 0; vc < f.vcs; vc++ {
		if f.OutputVCFree(port, vc) {
			n++
		}
	}
	return n
}

func pkt(src, dst topology.Node) *packet.Packet {
	return packet.New(1, src, dst, 8, 0)
}

func portsOf(cands []Candidate) map[int]bool {
	m := map[int]bool{}
	for _, c := range cands {
		m[c.Port] = true
	}
	return m
}

func vcsOf(cands []Candidate, port int) map[int]bool {
	m := map[int]bool{}
	for _, c := range cands {
		if c.Port == port {
			m[c.VC] = true
		}
	}
	return m
}

// --- DOR ---------------------------------------------------------------------

func TestDORSingleDeterministicPort(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{3, 5}))
	cands := DOR().Route(v, p, nil)
	ports := portsOf(cands)
	if len(ports) != 1 || !ports[topology.PortFor(0, 1)] {
		t.Fatalf("DOR ports = %v, want only +X", ports)
	}
	// Dateline class 0 on a 4-VC torus: VCs {0, 1}.
	vcs := vcsOf(cands, topology.PortFor(0, 1))
	if len(vcs) != 2 || !vcs[0] || !vcs[1] {
		t.Fatalf("DOR class-0 VCs = %v, want {0,1}", vcs)
	}
}

func TestDORDimensionOrder(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	// X offset resolved: must route in Y.
	v := newFakeView(topo, topo.NodeAt(topology.Coord{3, 0}), 4)
	p := pkt(topo.NodeAt(topology.Coord{0, 0}), topo.NodeAt(topology.Coord{3, 6}))
	cands := DOR().Route(v, p, nil)
	ports := portsOf(cands)
	if len(ports) != 1 || !ports[topology.PortFor(1, -1)] {
		t.Fatalf("DOR should route -Y (wrap 6 is closer backwards), got %v", ports)
	}
}

func TestDORDatelineClassSwitchesVCs(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{3, 0}))
	p.DatelineCrossed |= 1 << 0 // already crossed dim-0 dateline
	cands := DOR().Route(v, p, nil)
	vcs := vcsOf(cands, topology.PortFor(0, 1))
	if len(vcs) != 2 || !vcs[2] || !vcs[3] {
		t.Fatalf("DOR class-1 VCs = %v, want {2,3}", vcs)
	}
}

func TestDORMeshUsesAllVCs(t *testing.T) {
	topo := topology.MustMesh(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{5, 0}))
	cands := DOR().Route(v, p, nil)
	vcs := vcsOf(cands, topology.PortFor(0, 1))
	if len(vcs) != 4 {
		t.Fatalf("mesh DOR VCs = %v, want all 4", vcs)
	}
}

func TestDOREmptyAtDestination(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, 5, 4)
	if cands := DOR().Route(v, pkt(5, 5), nil); len(cands) != 0 {
		t.Fatalf("DOR at destination returned %v", cands)
	}
}

// Property: DOR's single port is always minimal.
func TestDORPortMinimalProperty(t *testing.T) {
	topo := topology.MustTorus(6, 6)
	f := func(fromRaw, toRaw uint16) bool {
		from := topology.Node(int(fromRaw) % topo.Nodes())
		to := topology.Node(int(toRaw) % topo.Nodes())
		if from == to {
			return true
		}
		v := newFakeView(topo, from, 2)
		cands := DOR().Route(v, pkt(from, to), nil)
		if len(cands) == 0 {
			return false
		}
		for _, c := range cands {
			nb, ok := topo.Neighbor(from, c.Port)
			if !ok || topo.Distance(nb, to) != topo.Distance(from, to)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// --- Negative-first ------------------------------------------------------------

func TestNegFirstPhases(t *testing.T) {
	topo := topology.MustMesh(8, 8)
	// From (4,4) to (2,6): -X needed, +Y needed. Negative first: only -X.
	v := newFakeView(topo, topo.NodeAt(topology.Coord{4, 4}), 2)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 6}))
	cands := NegativeFirst().Route(v, p, nil)
	ports := portsOf(cands)
	if len(ports) != 1 || !ports[topology.PortFor(0, -1)] {
		t.Fatalf("negative-first phase 1 ports = %v, want only -X", ports)
	}
}

func TestNegFirstPositivePhaseAdaptive(t *testing.T) {
	topo := topology.MustMesh(8, 8)
	// From (2,2) to (5,6): only positive hops -> adaptive between +X and +Y.
	v := newFakeView(topo, topo.NodeAt(topology.Coord{2, 2}), 2)
	p := pkt(v.node, topo.NodeAt(topology.Coord{5, 6}))
	cands := NegativeFirst().Route(v, p, nil)
	ports := portsOf(cands)
	if len(ports) != 2 || !ports[topology.PortFor(0, 1)] || !ports[topology.PortFor(1, 1)] {
		t.Fatalf("positive phase ports = %v, want {+X,+Y}", ports)
	}
}

func TestNegFirstBothNegativeAdaptive(t *testing.T) {
	topo := topology.MustMesh(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{5, 5}), 2)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 1}))
	cands := NegativeFirst().Route(v, p, nil)
	ports := portsOf(cands)
	if len(ports) != 2 || !ports[topology.PortFor(0, -1)] || !ports[topology.PortFor(1, -1)] {
		t.Fatalf("negative phase ports = %v, want {-X,-Y}", ports)
	}
}

// Property: negative-first candidates always reduce the MESH distance (on a
// torus the algorithm never uses wraparound links — see the type comment),
// and no candidate is a positive hop while a negative hop remains.
func TestNegFirstMinimalProperty(t *testing.T) {
	topo := topology.MustTorus(6, 6)
	mesh := topology.MustMesh(6, 6)
	f := func(fromRaw, toRaw uint16) bool {
		from := topology.Node(int(fromRaw) % topo.Nodes())
		to := topology.Node(int(toRaw) % topo.Nodes())
		if from == to {
			return true
		}
		v := newFakeView(topo, from, 2)
		cands := NegativeFirst().Route(v, pkt(from, to), nil)
		if len(cands) == 0 {
			return false
		}
		hasNeg, hasPos := false, false
		for _, c := range cands {
			nb, ok := topo.Neighbor(from, c.Port)
			if !ok {
				return false
			}
			// Never a wraparound hop, and always closer in mesh distance.
			if topo.CrossesDateline(from, c.Port) {
				return false
			}
			if mesh.Distance(nb, to) != mesh.Distance(from, to)-1 {
				return false
			}
			if topology.PortSign(c.Port) < 0 {
				hasNeg = true
			} else {
				hasPos = true
			}
		}
		return !(hasNeg && hasPos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// --- Dally & Aoki ---------------------------------------------------------------

func TestDallyAokiAdaptiveClass(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	cands := DallyAoki().Route(v, p, nil)
	// Two minimal ports (+X, +Y) x adaptive VCs {0,1} on a 4-VC torus.
	if len(cands) != 4 {
		t.Fatalf("adaptive candidates = %d, want 4: %v", len(cands), cands)
	}
	for _, c := range cands {
		if c.VC >= 2 {
			t.Fatalf("adaptive candidate on deterministic VC: %v", c)
		}
		if c.ToDeterministic {
			t.Fatalf("unexpected deterministic transition: %v", c)
		}
	}
}

func TestDallyAokiForcedDeterministic(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	p.DimReversals = 1
	// Occupy all adaptive VCs on both minimal ports with DR <= 1.
	for _, port := range []int{topology.PortFor(0, 1), topology.PortFor(1, 1)} {
		v.busy[[2]int{port, 0}] = 0
		v.busy[[2]int{port, 1}] = 1
	}
	cands := DallyAoki().Route(v, p, nil)
	if len(cands) != 1 || !cands[0].ToDeterministic {
		t.Fatalf("expected forced deterministic transition, got %v", cands)
	}
	if cands[0].VC != 2 { // dateline class 0 -> first deterministic VC
		t.Fatalf("deterministic VC = %d, want 2", cands[0].VC)
	}
	if cands[0].Port != topology.PortFor(0, 1) {
		t.Fatalf("deterministic port should be DOR (+X), got %d", cands[0].Port)
	}
}

func TestDallyAokiWaitsOnHigherDR(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	p.DimReversals = 1
	for _, port := range []int{topology.PortFor(0, 1), topology.PortFor(1, 1)} {
		v.busy[[2]int{port, 0}] = 0
		v.busy[[2]int{port, 1}] = 0
	}
	v.busy[[2]int{topology.PortFor(1, 1), 1}] = 5 // one occupant with higher DR
	cands := DallyAoki().Route(v, p, nil)
	for _, c := range cands {
		if c.ToDeterministic {
			t.Fatalf("should wait (higher-DR occupant exists), got %v", cands)
		}
	}
	if len(cands) != 4 {
		t.Fatalf("waiting packet should keep adaptive candidates, got %v", cands)
	}
}

func TestDallyAokiStaysDeterministic(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	p.OnDeterministic = true
	cands := DallyAoki().Route(v, p, nil)
	if len(cands) != 1 || cands[0].VC < 2 {
		t.Fatalf("deterministic packet candidates = %v", cands)
	}
	p.DatelineCrossed = 1 // crossed dim 0
	cands = DallyAoki().Route(v, p, nil)
	if len(cands) != 1 || cands[0].VC != 3 {
		t.Fatalf("dateline class 1 deterministic VC = %v, want 3", cands)
	}
}

// --- Duato ----------------------------------------------------------------------

func TestDuatoClasses(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	cands := Duato().Route(v, p, nil)
	var adaptive, escape []Candidate
	for _, c := range cands {
		if c.Class == 0 {
			adaptive = append(adaptive, c)
		} else {
			escape = append(escape, c)
		}
	}
	// Adaptive: 2 minimal ports x VCs {2,3}. Escape: DOR port VC 0.
	if len(adaptive) != 4 {
		t.Fatalf("adaptive candidates = %v", adaptive)
	}
	for _, c := range adaptive {
		if c.VC < 2 {
			t.Fatalf("adaptive candidate on escape VC: %v", c)
		}
	}
	if len(escape) != 1 || escape[0].VC != 0 || escape[0].Port != topology.PortFor(0, 1) {
		t.Fatalf("escape candidate = %v", escape)
	}
}

func TestDuatoEscapeDatelineClass(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 0}))
	p.DatelineCrossed = 1
	cands := Duato().Route(v, p, nil)
	found := false
	for _, c := range cands {
		if c.Class == 1 {
			found = true
			if c.VC != 1 {
				t.Fatalf("escape after dateline should use VC 1, got %v", c)
			}
		}
	}
	if !found {
		t.Fatal("no escape candidate")
	}
}

func TestDuatoMeshSingleEscape(t *testing.T) {
	topo := topology.MustMesh(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 3)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	cands := Duato().Route(v, p, nil)
	nEscape := 0
	for _, c := range cands {
		if c.Class == 1 {
			nEscape++
			if c.VC != 0 {
				t.Fatalf("mesh escape VC = %d, want 0", c.VC)
			}
		} else if c.VC == 0 {
			t.Fatalf("adaptive candidate using escape VC: %v", c)
		}
	}
	if nEscape != 1 {
		t.Fatalf("escape candidates = %d, want 1", nEscape)
	}
}

// --- Disha ------------------------------------------------------------------------

func TestDishaM0AllVCsOnEveryMinimalPort(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	cands := Disha(0).Route(v, p, nil)
	// 2 minimal ports x all 4 VCs; no misroutes.
	if len(cands) != 8 {
		t.Fatalf("Disha M=0 candidates = %d, want 8", len(cands))
	}
	for _, c := range cands {
		if c.Misroute || c.Class != 0 {
			t.Fatalf("Disha M=0 produced misroute candidate %v", c)
		}
	}
}

func TestDishaMisrouteCandidates(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	cands := Disha(3).Route(v, p, nil)
	// 2 minimal ports x 4 VCs class 0 + 2 non-minimal ports x 4 VCs class 1.
	var minimal, misroute int
	for _, c := range cands {
		if c.Misroute {
			misroute++
			if c.Class != 1 {
				t.Fatalf("misroute candidate must be class 1: %v", c)
			}
		} else {
			minimal++
		}
	}
	if minimal != 8 || misroute != 8 {
		t.Fatalf("minimal=%d misroute=%d, want 8/8", minimal, misroute)
	}
}

func TestDishaMisrouteBudgetExhausted(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	p.Misroutes = 3
	cands := Disha(3).Route(v, p, nil)
	for _, c := range cands {
		if c.Misroute {
			t.Fatalf("budget exhausted but misroute candidate %v offered", c)
		}
	}
	if len(cands) != 8 {
		t.Fatalf("candidates = %d, want 8 minimal", len(cands))
	}
}

func TestDishaNames(t *testing.T) {
	if Disha(0).Name() != "disha-m0" || Disha(3).Name() != "disha-m3" {
		t.Fatalf("names: %q, %q", Disha(0).Name(), Disha(3).Name())
	}
	if Disha(-2).(disha).MaxMisroutes() != 0 {
		t.Fatal("negative misroute bound should clamp to 0")
	}
	if Disha(12).Name() != "disha-m12" {
		t.Fatalf("name %q", Disha(12).Name())
	}
}

// Property: Disha M=0 candidates always decrease distance; with budget,
// misroute candidates never decrease distance.
func TestDishaCandidateLegalityProperty(t *testing.T) {
	topo := topology.MustTorus(6, 6)
	f := func(fromRaw, toRaw uint16, m uint8) bool {
		from := topology.Node(int(fromRaw) % topo.Nodes())
		to := topology.Node(int(toRaw) % topo.Nodes())
		if from == to {
			return true
		}
		v := newFakeView(topo, from, 2)
		p := pkt(from, to)
		alg := Disha(int(m % 4))
		for _, c := range alg.Route(v, p, nil) {
			nb, ok := topo.Neighbor(from, c.Port)
			if !ok {
				return false
			}
			closer := topo.Distance(nb, to) == topo.Distance(from, to)-1
			if c.Misroute == closer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// --- MinVCs ----------------------------------------------------------------------

func TestMinVCs(t *testing.T) {
	tor := topology.MustTorus(4, 4)
	msh := topology.MustMesh(4, 4)
	cases := []struct {
		alg         Algorithm
		torus, mesh int
	}{
		{DOR(), 2, 1},
		{NegativeFirst(), 1, 1},
		{DallyAoki(), 3, 2},
		{Duato(), 3, 2},
		{Disha(0), 1, 1},
	}
	for _, c := range cases {
		if got := c.alg.MinVCs(tor); got != c.torus {
			t.Errorf("%s MinVCs(torus) = %d, want %d", c.alg.Name(), got, c.torus)
		}
		if got := c.alg.MinVCs(msh); got != c.mesh {
			t.Errorf("%s MinVCs(mesh) = %d, want %d", c.alg.Name(), got, c.mesh)
		}
	}
}

// --- Selection ----------------------------------------------------------------------

func TestRandomSelection(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	v := newFakeView(topo, 0, 2)
	cands := []Candidate{{Port: 0, VC: 0}, {Port: 2, VC: 1}, {Port: 0, VC: 1}}
	r := sim.NewRNG(1)
	seen := map[Candidate]int{}
	for i := 0; i < 3000; i++ {
		seen[Random().Pick(v, cands, r)]++
	}
	if len(seen) != 3 {
		t.Fatalf("random selection hit %d of 3 candidates", len(seen))
	}
	for c, n := range seen {
		if n < 800 {
			t.Errorf("candidate %v picked only %d times", c, n)
		}
	}
}

func TestMinCongestionSelection(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	v := newFakeView(topo, 0, 4)
	// Port 0 has 1 free VC, port 2 has 3 free VCs.
	v.busy[[2]int{0, 0}] = 0
	v.busy[[2]int{0, 1}] = 0
	v.busy[[2]int{0, 2}] = 0
	v.busy[[2]int{2, 0}] = 0
	cands := []Candidate{{Port: 0, VC: 3}, {Port: 2, VC: 1}, {Port: 2, VC: 2}}
	r := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		got := MinCongestion().Pick(v, cands, r)
		if got.Port != 2 {
			t.Fatalf("min-congestion picked port %d, want 2", got.Port)
		}
	}
}

func TestMinCongestionTieBreaksRandomly(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	v := newFakeView(topo, 0, 2)
	cands := []Candidate{{Port: 0, VC: 0}, {Port: 2, VC: 0}}
	r := sim.NewRNG(1)
	seen := map[int]int{}
	for i := 0; i < 2000; i++ {
		seen[MinCongestion().Pick(v, cands, r).Port]++
	}
	if seen[0] < 500 || seen[2] < 500 {
		t.Fatalf("tie break skewed: %v", seen)
	}
}

func TestSelectionNames(t *testing.T) {
	if Random().Name() != "random" || MinCongestion().Name() != "min-congestion" {
		t.Fatal("selection names wrong")
	}
	for _, name := range SelectionNames() {
		if s, err := SelectionByName(name); err != nil || s.Name() != name {
			t.Errorf("SelectionByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := SelectionByName("nope"); err == nil || !strings.Contains(err.Error(), "min-congestion") {
		t.Errorf("SelectionByName(nope): err = %v, want one listing the accepted names", err)
	}
}

// TestByNameRoundTrip: the table parses every name it prints. Each spelling
// in Names resolves, every constructed algorithm round-trips through its
// Name(), a short form and its canonical name are the same function, and
// only the Disha family needs recovery.
func TestByNameRoundTrip(t *testing.T) {
	algs := []Algorithm{Disha(0), Disha(3), Disha(12), DOR(), NegativeFirst(), DallyAoki(), Duato(), DuatoStrict()}
	for _, name := range Names() {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		algs = append(algs, a)
	}
	for _, a := range algs {
		b, err := ByName(a.Name())
		if err != nil || b.Name() != a.Name() || b != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name(), b, err)
		}
		if _, isDisha := a.(disha); NeedsRecovery(a) != isDisha {
			t.Errorf("NeedsRecovery(%s) = %v", a.Name(), NeedsRecovery(a))
		}
	}
	for short, canonical := range map[string]string{"disha": "disha-m0", "turn": "turn-negative-first", "dally": "dally-aoki"} {
		if a, err := ByName(short); err != nil || a.Name() != canonical {
			t.Errorf("ByName(%q) = %v, %v, want %s", short, a, err, canonical)
		}
	}
	for _, bad := range []string{"", "trun", "disha-m", "disha-m-1", "disha-mx", "DOR"} {
		if _, err := ByName(bad); err == nil || !strings.Contains(err.Error(), "turn-negative-first") {
			t.Errorf("ByName(%q): err = %v, want one listing the accepted names", bad, err)
		}
	}
}

// --- Buffer reuse -------------------------------------------------------------------

func TestRouteAppendsToBuffer(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	buf := make([]Candidate, 0, 64)
	for _, alg := range []Algorithm{DOR(), NegativeFirst(), DallyAoki(), Duato(), Disha(3)} {
		out := alg.Route(v, p, buf[:0])
		if cap(out) == 64 && len(out) > 0 && &out[:1][0] != &buf[:1][0] {
			t.Errorf("%s reallocated despite capacity", alg.Name())
		}
	}
}

func TestDuatoStrictEscapeIsPermanent(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, topo.NodeAt(topology.Coord{0, 0}), 4)
	p := pkt(v.node, topo.NodeAt(topology.Coord{2, 2}))
	cands := DuatoStrict().Route(v, p, nil)
	for _, c := range cands {
		if c.Class == 1 && !c.ToDeterministic {
			t.Fatalf("strict escape candidate must set ToDeterministic: %v", c)
		}
		if c.Class == 0 && c.ToDeterministic {
			t.Fatalf("adaptive candidate must not be permanent: %v", c)
		}
	}
	p.OnDeterministic = true
	cands = DuatoStrict().Route(v, p, nil)
	if len(cands) != 1 || cands[0].Class != 1 {
		t.Fatalf("escaped packet must see only the escape candidate, got %v", cands)
	}
	if DuatoStrict().Name() != "duato-strict" {
		t.Fatal("name wrong")
	}
	// The liberal variant keeps adaptive candidates even after an escape.
	liberal := Duato().Route(v, p, nil)
	if len(liberal) != 5 {
		t.Fatalf("liberal duato should ignore OnDeterministic, got %v", liberal)
	}
}

// --- Allocation-free hot paths ----------------------------------------------------

// loadedView is an 8x8 torus view with 4 VCs, a third of them held by
// packets of assorted dimension-reversal counts.
func loadedView() *fakeView {
	topo := topology.MustTorus(8, 8)
	v := newFakeView(topo, 0, 4)
	r := sim.NewRNG(7)
	for port := 0; port < topo.Degree(); port++ {
		for vc := 0; vc < v.vcs; vc++ {
			if r.Intn(3) == 0 {
				v.busy[[2]int{port, vc}] = r.Intn(4)
			}
		}
	}
	return v
}

// TestRouteAllocatesNothing: every router calls Route for every waiting
// header every cycle, so a route must not allocate, whatever the
// destination, the VC occupancy or the packet's routing state. Each run
// routes from one node to all 63 others.
func TestRouteAllocatesNothing(t *testing.T) {
	v := loadedView()
	p := pkt(0, 1)
	buf := make([]Candidate, 0, 64)
	for _, alg := range []Algorithm{DOR(), NegativeFirst(), Duato(), DallyAoki(), Disha(3)} {
		run := 0
		if allocs := testing.AllocsPerRun(20, func() {
			v.node = topology.Node(run * 5 % 64)
			for i := 0; i < 64; i++ {
				p.Dst = topology.Node(i)
				p.OnDeterministic = (run+i)%7 == 0
				p.DimReversals = i % 3
				p.DatelineCrossed = uint64(i % 4)
				if v.node != p.Dst {
					buf = alg.Route(v, p, buf[:0])
				}
			}
			run++
		}); allocs != 0 {
			t.Errorf("%s Route allocates %v times per 63 routes", alg.Name(), allocs)
		}
	}
}

// TestPickAllocatesNothing: both selection functions pick without
// allocating.
func TestPickAllocatesNothing(t *testing.T) {
	v := loadedView()
	cands := []Candidate{{Port: 0, VC: 3}, {Port: 2, VC: 1}, {Port: 1, VC: 2}, {Port: 3, VC: 0}, {Port: 2, VC: 0}}
	r := sim.NewRNG(1)
	for _, sel := range []Selection{Random(), MinCongestion()} {
		if allocs := testing.AllocsPerRun(200, func() {
			_ = sel.Pick(v, cands, r)
		}); allocs != 0 {
			t.Errorf("%s Pick allocates %v times a call", sel.Name(), allocs)
		}
	}
}

// poolPick is min-congestion's earlier form, which appended the tied
// candidates to a fresh pool: the oracle for the two-pass Pick.
func poolPick(v View, cands []Candidate, r *sim.RNG) Candidate {
	best := -1
	var pool []Candidate
	for _, c := range cands {
		free := v.FreeVCs(c.Port)
		if free > best {
			best = free
			pool = pool[:0]
		}
		if free == best {
			pool = append(pool, c)
		}
	}
	return pool[r.Intn(len(pool))]
}

// TestMinCongestionMatchesPoolOracle: over random candidate lists and VC
// occupancies, the two-pass Pick returns the pool oracle's candidate and
// leaves the RNG in the same state, so every later draw is the same too.
func TestMinCongestionMatchesPoolOracle(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	gen := sim.NewRNG(3)
	for trial := 0; trial < 2000; trial++ {
		v := newFakeView(topo, 0, 1+gen.Intn(4))
		for port := 0; port < topo.Degree(); port++ {
			for vc := 0; vc < v.vcs; vc++ {
				if gen.Intn(2) == 0 {
					v.busy[[2]int{port, vc}] = 0
				}
			}
		}
		cands := make([]Candidate, 1+gen.Intn(12))
		for i := range cands {
			cands[i] = Candidate{Port: gen.Intn(topo.Degree()), VC: gen.Intn(v.vcs)}
		}
		seed := gen.Uint64()
		got, want := sim.NewRNG(seed), sim.NewRNG(seed)
		if g, w := MinCongestion().Pick(v, cands, got), poolPick(v, cands, want); g != w {
			t.Fatalf("trial %d: Pick = %+v, oracle %+v over %+v", trial, g, w, cands)
		}
		if *got != *want {
			t.Fatalf("trial %d: Pick left the RNG at %v, oracle at %v", trial, got.State(), want.State())
		}
	}
}
