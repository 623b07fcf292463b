package topology

import (
	"testing"
	"testing/quick"
)

func TestPortHelpers(t *testing.T) {
	cases := []struct {
		port, dim, sign int
	}{
		{0, 0, 1}, {1, 0, -1}, {2, 1, 1}, {3, 1, -1}, {6, 3, 1}, {7, 3, -1},
	}
	for _, c := range cases {
		if PortDim(c.port) != c.dim {
			t.Errorf("PortDim(%d) = %d, want %d", c.port, PortDim(c.port), c.dim)
		}
		if PortSign(c.port) != c.sign {
			t.Errorf("PortSign(%d) = %d, want %d", c.port, PortSign(c.port), c.sign)
		}
		if PortFor(c.dim, c.sign) != c.port {
			t.Errorf("PortFor(%d,%d) = %d, want %d", c.dim, c.sign, PortFor(c.dim, c.sign), c.port)
		}
		if ReversePort(ReversePort(c.port)) != c.port {
			t.Errorf("ReversePort not an involution at %d", c.port)
		}
		if PortDim(ReversePort(c.port)) != c.dim || PortSign(ReversePort(c.port)) != -c.sign {
			t.Errorf("ReversePort(%d) wrong direction", c.port)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewTorus(); err == nil {
		t.Error("NewTorus() with no dims should fail")
	}
	if _, err := NewTorus(1); err == nil {
		t.Error("radix 1 should fail")
	}
	if _, err := NewMesh(4, 0); err == nil {
		t.Error("radix 0 should fail")
	}
	if _, err := NewTorus(16, 16); err != nil {
		t.Errorf("16x16 torus failed: %v", err)
	}
}

func TestBasicProperties(t *testing.T) {
	tor := MustTorus(4, 3)
	if tor.Nodes() != 12 || tor.Dims() != 2 || tor.Degree() != 4 {
		t.Fatalf("torus-4x3 basic properties wrong: %d nodes, %d dims, %d degree",
			tor.Nodes(), tor.Dims(), tor.Degree())
	}
	if tor.Radix(0) != 4 || tor.Radix(1) != 3 {
		t.Fatal("radix accessors wrong")
	}
	if !tor.Wrap() {
		t.Fatal("torus must wrap")
	}
	if tor.Name() != "torus-4x3" {
		t.Fatalf("name %q", tor.Name())
	}
	msh := MustMesh(5)
	if msh.Wrap() || msh.Name() != "mesh-5" {
		t.Fatalf("mesh properties wrong: %q wrap=%v", msh.Name(), msh.Wrap())
	}
}

func TestCoordRoundTrip(t *testing.T) {
	for _, topo := range []Topology{MustTorus(4, 5, 3), MustMesh(7, 2)} {
		for n := 0; n < topo.Nodes(); n++ {
			co := topo.Coord(Node(n))
			if got := topo.NodeAt(co); got != Node(n) {
				t.Fatalf("%s: NodeAt(Coord(%d)) = %d", topo.Name(), n, got)
			}
			for d := 0; d < topo.Dims(); d++ {
				if co[d] < 0 || co[d] >= topo.Radix(d) {
					t.Fatalf("%s: coord %v out of range", topo.Name(), co)
				}
			}
		}
	}
}

func TestTorusNeighbors(t *testing.T) {
	tor := MustTorus(4, 4)
	// Node (0,0): +X -> (1,0), -X -> (3,0) (wrap), +Y -> (0,1), -Y -> (0,3).
	n00 := tor.NodeAt(Coord{0, 0})
	want := map[int]Coord{
		0: {1, 0}, 1: {3, 0}, 2: {0, 1}, 3: {0, 3},
	}
	for port, co := range want {
		nb, ok := tor.Neighbor(n00, port)
		if !ok {
			t.Fatalf("torus port %d missing", port)
		}
		if !tor.Coord(nb).Equal(co) {
			t.Errorf("port %d: got %v, want %v", port, tor.Coord(nb), co)
		}
	}
}

func TestMeshBoundary(t *testing.T) {
	msh := MustMesh(4, 4)
	corner := msh.NodeAt(Coord{0, 0})
	if _, ok := msh.Neighbor(corner, 1); ok {
		t.Error("mesh corner has a -X neighbor")
	}
	if _, ok := msh.Neighbor(corner, 3); ok {
		t.Error("mesh corner has a -Y neighbor")
	}
	if nb, ok := msh.Neighbor(corner, 0); !ok || !msh.Coord(nb).Equal(Coord{1, 0}) {
		t.Error("mesh corner +X neighbor wrong")
	}
	far := msh.NodeAt(Coord{3, 3})
	if _, ok := msh.Neighbor(far, 0); ok {
		t.Error("mesh far corner has a +X neighbor")
	}
}

// Property: traversing a port and then its reverse returns to the origin.
func TestNeighborReverseProperty(t *testing.T) {
	topos := []Topology{MustTorus(4, 4), MustTorus(5, 3), MustMesh(4, 4), MustTorus(3, 3, 3)}
	for _, topo := range topos {
		for n := 0; n < topo.Nodes(); n++ {
			for p := 0; p < topo.Degree(); p++ {
				nb, ok := topo.Neighbor(Node(n), p)
				if !ok {
					continue
				}
				back, ok := topo.Neighbor(nb, ReversePort(p))
				if !ok || back != Node(n) {
					t.Fatalf("%s: node %d port %d does not reverse (got %d, ok=%v)",
						topo.Name(), n, p, back, ok)
				}
			}
		}
	}
}

func TestDistanceTorus(t *testing.T) {
	tor := MustTorus(16, 16)
	a := tor.NodeAt(Coord{0, 0})
	cases := []struct {
		to   Coord
		want int
	}{
		{Coord{0, 0}, 0},
		{Coord{1, 0}, 1},
		{Coord{15, 0}, 1}, // wrap
		{Coord{8, 0}, 8},  // half ring
		{Coord{9, 0}, 7},  // wrap shorter
		{Coord{5, 7}, 12},
		{Coord{12, 12}, 8}, // 4 + 4 via wrap
	}
	for _, c := range cases {
		if got := tor.Distance(a, tor.NodeAt(c.to)); got != c.want {
			t.Errorf("Distance((0,0),%v) = %d, want %d", c.to, got, c.want)
		}
	}
}

func TestDistanceMesh(t *testing.T) {
	msh := MustMesh(16, 16)
	a := msh.NodeAt(Coord{0, 0})
	if got := msh.Distance(a, msh.NodeAt(Coord{15, 15})); got != 30 {
		t.Errorf("mesh corner distance = %d, want 30", got)
	}
	if got := msh.Distance(a, msh.NodeAt(Coord{15, 0})); got != 15 {
		t.Errorf("mesh edge distance = %d, want 15", got)
	}
}

// Property tests on random tori: distance axioms and minimal-port coherence.
func TestDistanceAxiomsProperty(t *testing.T) {
	f := func(kRaw, aRaw, bRaw, cRaw uint16) bool {
		k := int(kRaw%7) + 2 // radix 2..8
		tor := MustTorus(k, k)
		a := Node(int(aRaw) % tor.Nodes())
		b := Node(int(bRaw) % tor.Nodes())
		c := Node(int(cRaw) % tor.Nodes())
		dab, dba := tor.Distance(a, b), tor.Distance(b, a)
		if dab != dba { // symmetry
			return false
		}
		if (dab == 0) != (a == b) { // identity
			return false
		}
		// triangle inequality
		return tor.Distance(a, c) <= dab+tor.Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every minimal port decreases distance by exactly one, and at
// least one minimal port exists whenever from != to; non-minimal ports never
// decrease distance.
func TestMinimalPortsProperty(t *testing.T) {
	f := func(kRaw, fromRaw, toRaw uint16, mesh bool) bool {
		k := int(kRaw%7) + 2
		var topo Topology
		if mesh {
			topo = MustMesh(k, k)
		} else {
			topo = MustTorus(k, k)
		}
		from := Node(int(fromRaw) % topo.Nodes())
		to := Node(int(toRaw) % topo.Nodes())
		min := topo.MinimalPorts(from, to)
		if from == to {
			return len(min) == 0
		}
		if len(min) == 0 {
			return false
		}
		isMin := map[int]bool{}
		for _, p := range min {
			isMin[p] = true
			nb, ok := topo.Neighbor(from, p)
			if !ok {
				return false
			}
			if topo.Distance(nb, to) != topo.Distance(from, to)-1 {
				return false
			}
		}
		for p := 0; p < topo.Degree(); p++ {
			if isMin[p] {
				continue
			}
			nb, ok := topo.Neighbor(from, p)
			if !ok {
				continue
			}
			if topo.Distance(nb, to) < topo.Distance(from, to) {
				return false // a profitable port was not reported minimal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEquidistantRingBothDirectionsMinimal(t *testing.T) {
	tor := MustTorus(4)
	a, b := tor.NodeAt(Coord{0}), tor.NodeAt(Coord{2})
	ports := tor.MinimalPorts(a, b)
	if len(ports) != 2 {
		t.Fatalf("half-ring offset should have 2 minimal ports, got %v", ports)
	}
}

func TestDateline(t *testing.T) {
	tor := MustTorus(4, 4)
	if !tor.CrossesDateline(tor.NodeAt(Coord{3, 0}), 0) {
		t.Error("+X from x=3 should cross dateline")
	}
	if tor.CrossesDateline(tor.NodeAt(Coord{2, 0}), 0) {
		t.Error("+X from x=2 should not cross dateline")
	}
	if !tor.CrossesDateline(tor.NodeAt(Coord{0, 1}), 1) {
		t.Error("-X from x=0 should cross dateline")
	}
	if !tor.CrossesDateline(tor.NodeAt(Coord{1, 3}), 2) {
		t.Error("+Y from y=3 should cross dateline")
	}
	msh := MustMesh(4, 4)
	for n := 0; n < msh.Nodes(); n++ {
		for p := 0; p < msh.Degree(); p++ {
			if msh.CrossesDateline(Node(n), p) {
				t.Fatal("mesh must have no datelines")
			}
		}
	}
}

// Every dateline-free cycle check: following +X around a ring crosses the
// dateline exactly once.
func TestDatelineOncePerRing(t *testing.T) {
	tor := MustTorus(6, 3)
	n := tor.NodeAt(Coord{0, 0})
	crossings := 0
	cur := n
	for i := 0; i < 6; i++ {
		if tor.CrossesDateline(cur, 0) {
			crossings++
		}
		cur, _ = tor.Neighbor(cur, 0)
	}
	if cur != n || crossings != 1 {
		t.Fatalf("ring walk ended at %d with %d crossings", cur, crossings)
	}
}

func TestHamiltonianOrder(t *testing.T) {
	for _, topo := range []Topology{MustTorus(4, 4), MustMesh(5, 3), MustTorus(3, 3, 3), MustTorus(16, 16)} {
		order := topo.RecoveryLane()
		if len(order) != topo.Nodes() {
			t.Fatalf("%s: order has %d entries", topo.Name(), len(order))
		}
		seen := make([]bool, topo.Nodes())
		for _, n := range order {
			if seen[n] {
				t.Fatalf("%s: node %d visited twice", topo.Name(), n)
			}
			seen[n] = true
		}
		// Consecutive entries must be physical neighbors (distance 1).
		for i := 1; i < len(order); i++ {
			if topo.Distance(order[i-1], order[i]) != 1 {
				t.Fatalf("%s: order[%d]=%d and order[%d]=%d are not adjacent",
					topo.Name(), i-1, order[i-1], i, order[i])
			}
		}
	}
}

func TestHamiltonianOrderIsCopied(t *testing.T) {
	topo := MustTorus(4, 4)
	a := topo.RecoveryLane()
	a[0] = Node(99)
	b := topo.RecoveryLane()
	if b[0] == Node(99) {
		t.Fatal("HamiltonianOrder aliases internal state")
	}
}

func TestCoordHelpers(t *testing.T) {
	c := Coord{1, 2, 3}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Fatal("Clone aliases")
	}
	if !c.Equal(Coord{1, 2, 3}) || c.Equal(Coord{1, 2}) || c.Equal(Coord{1, 2, 4}) {
		t.Fatal("Equal wrong")
	}
	if c.String() != "(1,2,3)" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestNodeAtPanics(t *testing.T) {
	topo := MustTorus(4, 4)
	for _, co := range []Coord{{1}, {4, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NodeAt(%v) did not panic", co)
				}
			}()
			topo.NodeAt(co)
		}()
	}
}

func TestNeighborInvalidPort(t *testing.T) {
	topo := MustTorus(4, 4)
	if _, ok := topo.Neighbor(0, 4); ok {
		t.Error("port beyond degree should be invalid")
	}
	if _, ok := topo.Neighbor(0, -1); ok {
		t.Error("negative port should be invalid")
	}
}

func BenchmarkMinimalPorts(b *testing.B) {
	tor := MustTorus(16, 16)
	for i := 0; i < b.N; i++ {
		_ = tor.MinimalPorts(Node(i%256), Node((i*37)%256))
	}
}

func BenchmarkDistance(b *testing.B) {
	tor := MustTorus(16, 16)
	for i := 0; i < b.N; i++ {
		_ = tor.Distance(Node(i%256), Node((i*37)%256))
	}
}

func TestHypercube(t *testing.T) {
	h := MustHypercube(4)
	if h.Nodes() != 16 || h.Dims() != 4 || h.Wrap() {
		t.Fatalf("4-cube basics wrong: %d nodes, %d dims", h.Nodes(), h.Dims())
	}
	if h.Name() != "hypercube-4" {
		t.Fatalf("name %q", h.Name())
	}
	// Every node has exactly 4 wired ports (one per dimension), and each
	// neighbor differs in exactly one address bit.
	for n := 0; n < h.Nodes(); n++ {
		wired := 0
		for p := 0; p < h.Degree(); p++ {
			nb, ok := h.Neighbor(Node(n), p)
			if !ok {
				continue
			}
			wired++
			if diff := n ^ int(nb); diff&(diff-1) != 0 {
				t.Fatalf("neighbor %d of %d differs in more than one bit", nb, n)
			}
		}
		if wired != 4 {
			t.Fatalf("node %d has %d wired ports, want 4", n, wired)
		}
	}
	// Distance equals Hamming distance.
	for a := 0; a < h.Nodes(); a++ {
		for b := 0; b < h.Nodes(); b++ {
			want := 0
			for v := a ^ b; v != 0; v &= v - 1 {
				want++
			}
			if got := h.Distance(Node(a), Node(b)); got != want {
				t.Fatalf("distance(%d,%d) = %d, want Hamming %d", a, b, got, want)
			}
		}
	}
	if _, err := NewHypercube(0); err == nil {
		t.Fatal("0-dim hypercube should fail")
	}
}
