package disha_test

import (
	"bytes"
	"strings"
	"testing"

	disha "repro"
)

func TestFacadeQuickstart(t *testing.T) {
	topo := disha.Torus(4, 4)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo:      topo,
		Algorithm: disha.DishaRouting(0),
		Pattern:   disha.Uniform(topo),
		LoadRate:  0.3,
		MsgLen:    8,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(2000)
	if !sim.Drain(10000) {
		t.Fatal("did not drain")
	}
	c := sim.Counters()
	if c.PacketsDelivered == 0 || c.PacketsDelivered != c.PacketsInjected {
		t.Fatalf("delivery accounting wrong: %+v", c)
	}
	rep := sim.Report()
	for _, want := range []string{"packets delivered", "token seizures"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestFacadeOnDeliverAndAnalyzer(t *testing.T) {
	topo := disha.Torus(4, 4)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo:      topo,
		Algorithm: disha.DishaRouting(3),
		Pattern:   disha.Uniform(topo),
		LoadRate:  0.5,
		MsgLen:    8,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lat disha.LatencyCollector
	sim.OnDeliver(func(p *disha.Packet) { lat.Add(float64(p.Age())) })
	sim.Run(3000)
	if lat.Count() == 0 {
		t.Fatal("no deliveries observed")
	}
	if lat.Mean() <= 0 {
		t.Fatal("non-positive latency")
	}
	_ = sim.AnalyzeDeadlock() // must not panic on a live network
}

func TestFacadeAvoidanceConfig(t *testing.T) {
	topo := disha.Torus(4, 4)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo:            topo,
		Algorithm:       disha.Duato(),
		Pattern:         disha.Uniform(topo),
		LoadRate:        0.3,
		MsgLen:          8,
		Seed:            3,
		DisableRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(2000)
	if c := sim.Counters(); c.TokenSeizures != 0 || c.TimeoutEvents != 0 {
		t.Fatal("recovery was not disabled")
	}
}

func TestFacadeAlgorithmNames(t *testing.T) {
	names := map[string]disha.Algorithm{
		"disha-m0":            disha.DishaRouting(0),
		"disha-m3":            disha.DishaRouting(3),
		"dor":                 disha.DOR(),
		"turn-negative-first": disha.NegativeFirst(),
		"dally-aoki":          disha.DallyAoki(),
		"duato":               disha.Duato(),
		"duato-strict":        disha.DuatoStrict(),
	}
	for want, alg := range names {
		if alg.Name() != want {
			t.Errorf("name %q, want %q", alg.Name(), want)
		}
	}
	if disha.RandomSelection().Name() != "random" || disha.MinCongestionSelection().Name() != "min-congestion" {
		t.Error("selection names wrong")
	}
}

func TestFacadeFigures(t *testing.T) {
	sc := disha.SmallScale()
	if disha.Figure("4", sc) == nil || disha.Figure("nope", sc) != nil {
		t.Fatal("Figure lookup broken")
	}
	if disha.Figure("fullmesh", sc) == nil {
		t.Fatal("fullmesh baseline figure missing")
	}
	if len(disha.Figures(sc)) != 7 {
		t.Fatal("expected 7 canned figures")
	}
}

func TestFacadeCostTable(t *testing.T) {
	rows := disha.PaperCostTable()
	if len(rows) != 2 {
		t.Fatal("cost table rows")
	}
	s := disha.FormatCostTable(rows)
	if !strings.Contains(s, "disha") {
		t.Fatal("cost table text")
	}
	if disha.DishaRouterCost(4, 3).CrossbarInputs() != disha.StarChannelsRouterCost(4, 3).CrossbarInputs()+1 {
		t.Fatal("Disha must add exactly one crossbar input")
	}
}

func TestFacadePatterns(t *testing.T) {
	topo := disha.Torus(4, 4)
	if _, err := disha.BitReversal(topo); err != nil {
		t.Fatal(err)
	}
	if _, err := disha.Transpose(topo); err != nil {
		t.Fatal(err)
	}
	hs := disha.HotSpot(disha.Uniform(topo), 5, 0.05)
	if !strings.Contains(hs.Name(), "hotspot") {
		t.Fatal("hotspot name")
	}
	if disha.Complement(topo).Name() != "complement" || disha.Tornado(topo).Name() != "tornado" {
		t.Fatal("extension pattern names")
	}
}

func TestFacadeTrace(t *testing.T) {
	topo := disha.Torus(4, 4)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo:        topo,
		Algorithm:   disha.DishaRouting(0),
		Pattern:     disha.Uniform(topo),
		LoadRate:    0.9,
		MsgLen:      8,
		VCs:         1,
		BufferDepth: 1,
		Timeout:     8,
		Seed:        12,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := sim.EnableTrace(4096)
	sim.Run(3000)
	sim.Drain(60000)
	if buf.Count(disha.TraceInject) == 0 || buf.Count(disha.TraceDeliver) == 0 {
		t.Fatal("trace missing inject/deliver events")
	}
	c := sim.Counters()
	if buf.Count(disha.TraceTokenCapture) != c.TokenSeizures {
		t.Fatalf("trace captures %d != seizures %d", buf.Count(disha.TraceTokenCapture), c.TokenSeizures)
	}
	if buf.Count(disha.TraceTokenRelease) != c.TokenSeizures {
		t.Fatalf("releases %d != seizures %d", buf.Count(disha.TraceTokenRelease), c.TokenSeizures)
	}
	if buf.Count(disha.TraceTimeout) != c.TimeoutEvents {
		t.Fatalf("trace timeouts %d != counter %d", buf.Count(disha.TraceTimeout), c.TimeoutEvents)
	}
	if c.TokenSeizures > 0 {
		// A recovered packet's retained history should show the protocol
		// order: timeout before recover.
		recs := buf.Filter(disha.TraceRecover)
		last := recs[len(recs)-1]
		hist := buf.PacketHistory(last.Pkt)
		sawTimeout := false
		for _, e := range hist {
			if e.Kind == disha.TraceTimeout {
				sawTimeout = true
			}
			if e.Kind == disha.TraceRecover && !sawTimeout {
				t.Fatal("recover recorded before timeout")
			}
		}
	}
}

func TestFacadeHypercube(t *testing.T) {
	h := disha.Hypercube(4)
	if h.Nodes() != 16 || h.Name() != "hypercube-4" {
		t.Fatalf("hypercube facade wrong: %s %d nodes", h.Name(), h.Nodes())
	}
	if _, err := disha.NewHypercube(0); err == nil {
		t.Fatal("0-dim hypercube should fail")
	}
}

func TestFacadeRecoveryModes(t *testing.T) {
	for _, mode := range []disha.RecoveryMode{
		disha.RecoverySequential, disha.RecoveryConcurrent, disha.RecoveryAbortRetry,
	} {
		topo := disha.Torus(4, 4)
		sim, err := disha.NewSimulator(disha.SimConfig{
			Topo:        topo,
			Algorithm:   disha.DishaRouting(0),
			Pattern:     disha.Uniform(topo),
			LoadRate:    0.8,
			MsgLen:      8,
			VCs:         1,
			BufferDepth: 1,
			Timeout:     8,
			Recovery:    mode,
			Seed:        12,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		sim.Run(2500)
		if !sim.Drain(120000) {
			t.Fatalf("%v failed to drain", mode)
		}
		c := sim.Counters()
		switch mode {
		case disha.RecoverySequential:
			if c.TokenSeizures == 0 {
				t.Error("sequential: expected token seizures")
			}
		case disha.RecoveryConcurrent:
			if c.Recoveries == 0 || c.TokenSeizures != 0 {
				t.Errorf("concurrent: recoveries=%d seizures=%d", c.Recoveries, c.TokenSeizures)
			}
		case disha.RecoveryAbortRetry:
			if c.PacketsKilled == 0 {
				t.Error("abort-retry: expected kills")
			}
		}
	}
}

func TestFacadePlots(t *testing.T) {
	sc := disha.ExperimentScale{Radix: 4, MsgLen: 8, Warmup: 200, Measure: 600,
		Loads: []float64{0.2, 0.4}, Seed: 5}
	spec := disha.Figure("4", sc)
	spec.Algs = spec.Algs[:2]
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := disha.PlotLatency("latency", res)
	thr := disha.PlotThroughput("throughput", res)
	if !strings.Contains(lat, "log scale") || !strings.Contains(thr, "accepted") {
		t.Fatal("plots malformed")
	}
	for _, s := range res.Series {
		if !strings.Contains(lat, s.Label) {
			t.Fatalf("legend missing %s", s.Label)
		}
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	topo := disha.Torus(4, 4)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo:      topo,
		Algorithm: disha.DishaRouting(3),
		Pattern:   disha.Uniform(topo),
		LoadRate:  0.3,
		MsgLen:    8,
		Timeout:   8,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.FailLink(0, 0); err != nil {
		t.Fatal(err)
	}
	sim.Run(2000)
	if !sim.Drain(30000) {
		t.Fatal("faulty network did not drain under Disha")
	}
}

func TestFacadeBurstyConfig(t *testing.T) {
	topo := disha.Torus(4, 4)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo:      topo,
		Algorithm: disha.DishaRouting(0),
		Pattern:   disha.Uniform(topo),
		LoadRate:  0.4,
		MsgLen:    8,
		Timeout:   8,
		Burst:     disha.BurstConfig{MeanBurst: 40, MeanIdle: 120},
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(3000)
	if !sim.Drain(30000) {
		t.Fatal("bursty run did not drain")
	}
	if sim.Counters().PacketsDelivered == 0 {
		t.Fatal("bursty run delivered nothing")
	}
}

// TestSwapAdmission: a routing swap passes the same admission rule as
// construction. Swapping to DOR on a coordinate-free full mesh used to be
// accepted — and the next Step panicked inside dor.Route; now the manual call
// is an error that leaves no trace, the same event scheduled is logged as
// skipped with the reason, and the run carries on. An applied swap is logged
// under the function's canonical name whichever spelling asked for it, so a
// snapshot replays the same function.
func TestSwapAdmission(t *testing.T) {
	build := func() *disha.Simulator {
		topo := disha.FullMesh(8)
		sim, err := disha.NewSimulator(disha.SimConfig{
			Topo: topo, Algorithm: disha.DishaRouting(2), Pattern: disha.Uniform(topo),
			LoadRate: 0.3, MsgLen: 8, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	sim := build()
	sim.Run(50)
	if err := sim.SwapRouting("dor"); err == nil || !strings.Contains(err.Error(), "needs cube coordinates") {
		t.Fatalf(`SwapRouting("dor") on %s: err = %v, want the cube-coordinates refusal`, sim.Network().Topo().Name(), err)
	}
	if log := sim.ReconfigLog(); len(log) != 0 {
		t.Fatalf("a refused manual swap was logged: %v", log)
	}
	if err := sim.ScheduleReconfig([]disha.ReconfigEvent{
		{Cycle: 60, Kind: disha.ReconfigSwapAlgorithm, Alg: "dor"},
		{Cycle: 70, Kind: disha.ReconfigSwapAlgorithm, Alg: "disha"},
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(64)
	log := sim.ReconfigLog()
	if len(log) != 2 {
		t.Fatalf("reconfiguration log has %d entries, want 2: %v", len(log), log)
	}
	if s := log[0].String(); log[0].Applied || !strings.Contains(s, "SKIPPED") || !strings.Contains(s, "needs cube coordinates") {
		t.Errorf("scheduled swap to dor logged as %q, want SKIPPED with the cube-coordinates reason", s)
	}
	if !log[1].Applied || log[1].Alg != "disha-m0" {
		t.Errorf(`scheduled swap to "disha" logged as %q, want applied under the canonical name disha-m0`, log[1])
	}

	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := build()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got := restored.Network().CurrentAlgorithm().Name(); got != "disha-m0" {
		t.Errorf("the restored network runs %q, want the swapped-in disha-m0", got)
	}
	sim.Run(64)
	restored.Run(64)
	if sim.Fingerprint() != restored.Fingerprint() {
		t.Error("the restored run diverged from the original after the replayed swap")
	}
}
