package topology

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// freshTables empties the process cache for one test and again after it,
// so neither this test nor the next sees the other's graphs.
func freshTables(t *testing.T) {
	FlushSharedTables()
	t.Cleanup(FlushSharedTables)
}

// TestNamedDigraphsAreShared pins one graph per canonical name: every
// constructor call and every Parse of that name returns the same value.
func TestNamedDigraphsAreShared(t *testing.T) {
	freshTables(t)
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
		if a != b || a != c {
			t.Fatalf("%s: constructor and Parse returned distinct graphs", name)
		}
	}
}

// TestConcurrentFirstCallersBuildOnce starts many first callers of one name
// at once: exactly one builds, the rest wait for its graph.
func TestConcurrentFirstCallersBuildOnce(t *testing.T) {
	freshTables(t)
	before := SharedTableStats().GraphBuilds
	graphs := make([]Graph, 8)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i], _ = NewDragonfly(5, 3)
		}()
	}
	wg.Wait()
	if builds := SharedTableStats().GraphBuilds - before; builds != 1 {
		t.Fatalf("%d builds of dragonfly-5x3, want 1", builds)
	}
	for _, g := range graphs[1:] {
		if g != graphs[0] {
			t.Fatal("concurrent first callers got distinct graphs")
		}
	}
}

// TestNewDigraphNeverShares builds two graphs under one name with different
// adjacency, one of them under a family's canonical name: no two may share a
// distance table or a lane table, whatever their names say.
func TestNewDigraphNeverShares(t *testing.T) {
	freshTables(t)
	ring := [][]int{{1, 3}, {2, 0}, {3, 1}, {0, 2}}
	line := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	family, err := NewFullMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []Graph{family}
	for _, adj := range [][][]int{ring, line, ring} {
		g, err := NewDigraph("fullmesh-4", adj)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		want := int16(i + 1)
		got, _ := g.(*digraph).LaneTable(func() ([]int16, error) { return []int16{want}, nil })
		if got[0] != want {
			t.Fatalf("graph %d was handed graph %d's lane table", i, got[0]-1)
		}
		for _, h := range graphs[:i] {
			if &g.(*digraph).dist[0] == &h.(*digraph).dist[0] {
				t.Fatalf("graph %d shares a distance table", i)
			}
		}
	}
	if graphs[1].Distance(0, 2) != 2 || graphs[2].Distance(0, 3) != 3 || graphs[0].Distance(0, 3) != 1 {
		t.Fatal("a graph answers distances from another adjacency")
	}
}

// TestSharedTablesStayInBudget feeds the cache more distinct dragonfly sizes
// than a small budget holds: after every graph the retained bytes, each
// graph charged its distance and lane tables, are within the budget, and the
// oldest graphs went first. The six graphs charge 9 668 bytes together.
func TestSharedTablesStayInBudget(t *testing.T) {
	const budget = 8 << 10
	freshTables(t)
	shared.Lock()
	shared.budget = budget
	shared.Unlock()
	t.Cleanup(func() {
		shared.Lock()
		shared.budget = tableBudget
		shared.Unlock()
	})
	var names []string
	for a := 2; a <= 4; a++ {
		for h := 1; h <= 2; h++ {
			g, err := NewDragonfly(a, h)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, g.Name())
			if st := SharedTableStats(); st.Bytes > budget {
				t.Fatalf("after %s: %d bytes retained, budget %d", g.Name(), st.Bytes, budget)
			}
		}
	}
	st := SharedTableStats()
	if st.Graphs == 0 || st.Graphs >= len(names) {
		t.Fatalf("%d of %d graphs retained, want some but not all", st.Graphs, len(names))
	}
	shared.Lock()
	defer shared.Unlock()
	for i, name := range names {
		if kept := shared.byName[name] != nil; kept != (i >= len(names)-st.Graphs) {
			t.Fatalf("%s retained = %v: eviction is not oldest first", name, kept)
		}
	}
}

// TestParseDragonflyAllocatesOneTable pins the cold build of the benchmark's
// dragonfly to about its distance table: the BFS queue used to be re-sliced
// from the front, so every later append reallocated it (68 MB for what was
// then a 17 MB int32 table).
func TestParseDragonflyAllocatesOneTable(t *testing.T) {
	freshTables(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Parse("dragonfly-16x8")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.(*digraph).dist
	table := uint64(unsafe.Sizeof(dist[0])) * uint64(len(dist))
	if got := after.TotalAlloc - before.TotalAlloc; got > table*5/4 {
		t.Fatalf("cold Parse(%s) allocated %d bytes, want about one %d-byte table", g.Name(), got, table)
	}
}
