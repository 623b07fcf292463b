// Deadlock recovery, demonstrated end to end.
//
// This example makes the paper's core claim concrete. It builds a small
// torus with a single virtual channel and single-flit-deep buffers — the
// most deadlock-prone configuration possible — and drives unrestricted
// fully adaptive routing hard:
//
//  1. with recovery DISABLED, true deadlock cycles form (verified with the
//     wait-for-graph analyzer) and the network wedges permanently;
//  2. with DISHA recovery ENABLED (time-out detection + Token + Deadlock
//     Buffers), the same routing under the same workload always drains.
package main

import (
	"fmt"
	"log"

	disha "repro"
)

const (
	radix  = 4
	load   = 0.9
	msgLen = 8
	seed   = 12
)

func build(recovery bool, mode disha.RecoveryMode) *disha.Simulator {
	topo := disha.Torus(radix, radix)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo:            topo,
		Algorithm:       disha.DishaRouting(0),
		Pattern:         disha.Uniform(topo),
		LoadRate:        load,
		MsgLen:          msgLen,
		VCs:             1, // no virtual channels at all:
		BufferDepth:     1, // Disha needs none for deadlock freedom
		Timeout:         8,
		DisableRecovery: !recovery,
		Recovery:        mode,
		Seed:            seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return sim
}

func main() {
	fmt.Println("--- phase 1: unrestricted adaptive routing WITHOUT recovery ---")
	wedged := build(false, disha.RecoverySequential)
	wedged.Run(4000)
	res := wedged.AnalyzeDeadlock()
	fmt.Printf("wait-for-graph: %d blocked headers, true deadlock = %v (%d members)\n",
		len(res.Blocked), res.TrueDeadlock(), len(res.Deadlocked))
	for i, bh := range res.Deadlocked {
		if i == 4 {
			fmt.Println("   ...")
			break
		}
		fmt.Printf("   member: %v waits on %d packet(s)\n", bh.Pkt, len(bh.WaitsOn))
	}
	drained := wedged.Drain(30000)
	fmt.Printf("drained after stopping injection: %v (in flight: %d)\n\n",
		drained, wedged.Counters().PacketsInjected-wedged.Counters().PacketsDelivered)

	fmt.Println("--- phase 2: the same routing WITH Disha recovery ---")
	recovered := build(true, disha.RecoverySequential)
	// The hub's episode tracker folds each presumption's protocol events
	// (time-out, Token capture, DB-lane switch, Token release, delivery)
	// into one span.
	tel := recovered.EnableTelemetry(disha.TelemetryOptions{SampleEvery: -1})
	recovered.Run(4000)
	if !recovered.Drain(100000) {
		log.Fatal("recovery-enabled network failed to drain — bug!")
	}
	c := recovered.Counters()
	fmt.Print(recovered.Report())
	fmt.Printf("\nevery one of the %d injected packets was delivered;\n", c.PacketsInjected)
	fmt.Printf("%d deadlocked packets escaped through the Deadlock Buffer lane\n", c.TokenSeizures)
	fmt.Println("(each seized the Token, crawled the DB lane minimally, and sank at its destination)")
	fmt.Println("\nlast Token recoveries, as the telemetry hub's episode tracker recorded them:")
	var seized []*disha.EpisodeSpan // false presumptions never capture the Token
	for _, s := range tel.Episodes.Spans() {
		if s.Capture >= 0 {
			seized = append(seized, s)
		}
	}
	for _, s := range seized[max(len(seized)-3, 0):] {
		fmt.Printf("   pkt %d: timeout@%d node=%d -> token@%d -> db-lane@%d -> release@%d -> %s@%d\n",
			s.Pkt, s.Start, s.Node, s.Capture, s.Recover, s.Release, s.Outcome, s.End)
	}

	fmt.Println("\n--- phase 3: token-free CONCURRENT recovery (future work in the paper) ---")
	cr := build(true, disha.RecoveryConcurrent)
	cr.Run(4000)
	if !cr.Drain(100000) {
		log.Fatal("concurrent-recovery network failed to drain — bug!")
	}
	cc := cr.Counters()
	fmt.Printf("delivered %d/%d packets; %d recoveries with no token at all\n",
		cc.PacketsDelivered, cc.PacketsInjected, cc.Recoveries)
	fmt.Println("(deadlocked packets recover immediately over two Deadlock Buffer lanes")
	fmt.Println(" that climb, then descend, BFS labels of the links — see DESIGN.md for")
	fmt.Println(" the construction)")
}
