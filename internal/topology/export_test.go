package topology

import "unsafe"

// TableStats describes the process's digraph table cache: the named graphs
// it holds and their table bytes, and how many named graphs and digraph lane
// tables the process has built.
type TableStats struct{ Graphs, Bytes, GraphBuilds, LaneBuilds int }

// SharedTableStats reports the process's digraph table cache.
func SharedTableStats() TableStats {
	shared.Lock()
	defer shared.Unlock()
	return TableStats{len(shared.byName), shared.bytes, shared.builds, int(laneBuilds.Load())}
}

// TableBytes is the size in memory of g's distance table and its memoized
// Deadlock Buffer lane table (empty until core.BFSLane has run on g).
func TableBytes(g Graph) int {
	d := g.(*digraph)
	dist, lane := d.dist, d.dbLane.table
	return int(unsafe.Sizeof(dist[0]))*len(dist) + int(unsafe.Sizeof(lane[0]))*len(lane)
}
