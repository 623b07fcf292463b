package network

import "testing"

// The production kernel — optimized struct-of-arrays scans, active-set
// scheduler on — has no switches. The two kernels it is checked against are
// reachable only through these helpers, which must run on a fresh network:
// before the first Step, and before any Restore (it rebuilds the active set).

// useReferenceScan routes n's router-local phases through the retained
// reference scans (router.StageRoutingRef and friends).
func useReferenceScan(t testing.TB, n *Network) {
	t.Helper()
	requireUnstepped(t, n)
	n.refScan = true
}

// useFullScan makes n visit every router every cycle.
func useFullScan(t testing.TB, n *Network) {
	t.Helper()
	requireUnstepped(t, n)
	n.activeSetOff = true
}

func requireUnstepped(t testing.TB, n *Network) {
	t.Helper()
	if n.Now() != 0 {
		t.Fatalf("reference kernel selected at cycle %d, want before the first Step", n.Now())
	}
}
