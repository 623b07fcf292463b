package topology

import (
	"reflect"
	"runtime"
	"testing"
)

// TestNamedDigraphsAreShared pins one graph per canonical name: every
// constructor call and every Parse of that name returns an equal graph, so
// anything keyed by the name sees one graph.
func TestNamedDigraphsAreShared(t *testing.T) {
	for name, build := range map[string]func() (Graph, error){
		"fullmesh-8":    func() (Graph, error) { return NewFullMesh(8) },
		"dragonfly-4x2": func() (Graph, error) { return NewDragonfly(4, 2) },
		"fattree-4":     func() (Graph, error) { return NewFatTree(4) },
	} {
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := build()
		c, _ := Parse(name)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) || a.Name() != name {
			t.Fatalf("%s: constructor and Parse returned distinct graphs", name)
		}
	}
}

// TestNewDigraphNeverShares builds graphs under one name with different
// adjacency, one of them a family's canonical name: no two share a
// distance table, and each answers from its own adjacency, whatever the
// names say.
func TestNewDigraphNeverShares(t *testing.T) {
	ring := [][]int{{1, 3}, {2, 0}, {3, 1}, {0, 2}}
	line := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	family, err := NewFullMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []Graph
	for _, adj := range [][][]int{ring, line, ring} {
		g, err := NewDigraph("fullmesh-4", adj)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range graphs {
			if &g.(*digraph).dist[0] == &h.(*digraph).dist[0] {
				t.Fatalf("graph %d shares graph %d's distance table", len(graphs), i)
			}
		}
		graphs = append(graphs, g)
	}
	if graphs[0].Distance(0, 2) != 2 || graphs[1].Distance(0, 3) != 3 || family.Distance(0, 3) != 1 {
		t.Fatal("a graph answers distances from another adjacency")
	}
}

// TestParseDragonflyAllocatesNoTable pins the named path to arithmetic:
// parsing the benchmark's dragonfly allocates nothing of size nodes² (one
// int16 table of its 2 064 routers would be 8.5 MB).
func TestParseDragonflyAllocatesNoTable(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Parse("dragonfly-16x8")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("Parse(%s) allocated %d bytes, want under 64 KB", g.Name(), got)
	}
}
