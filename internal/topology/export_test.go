package topology

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
