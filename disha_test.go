package disha_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync/atomic"
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
	var stream bytes.Buffer
	tw := disha.NewTelemetryWriter(&stream)
	sim.EnableTelemetry(disha.TelemetryOptions{SampleEvery: -1, Writer: tw})
	sim.Run(3000)
	sim.Drain(60000)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Count the stream's event lines by kind; every Recover must follow a
	// Timeout of the same packet (the protocol order).
	count := map[string]int64{}
	timedOut := map[int64]bool{}
	for dec := json.NewDecoder(&stream); ; {
		var l struct {
			Type, Kind string
			Pkt        int64
		}
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if l.Type != "event" {
			continue
		}
		count[l.Kind]++
		switch l.Kind {
		case "timeout":
			timedOut[l.Pkt] = true
		case "recover":
			if !timedOut[l.Pkt] {
				t.Fatalf("packet %d recovered before its timeout", l.Pkt)
			}
		}
	}
	if count["inject"] == 0 || count["deliver"] == 0 {
		t.Fatal("stream missing inject/deliver events")
	}
	c := sim.Counters()
	if count["token-capture"] != c.TokenSeizures || c.TokenSeizures == 0 {
		t.Fatalf("stream captures %d, seizures %d (want equal and nonzero)", count["token-capture"], c.TokenSeizures)
	}
	if count["token-release"] != c.TokenSeizures {
		t.Fatalf("releases %d != seizures %d", count["token-release"], c.TokenSeizures)
	}
	if count["recover"] != c.Recoveries {
		t.Fatalf("stream recoveries %d != counter %d", count["recover"], c.Recoveries)
	}
	if count["timeout"] != c.TimeoutEvents {
		t.Fatalf("stream timeouts %d != counter %d", count["timeout"], c.TimeoutEvents)
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
	for _, alg := range res.Spec.Algs {
		if !strings.Contains(lat, alg.Label) {
			t.Fatalf("legend missing %s", alg.Label)
		}
	}
}

// TestFacadeSweepTypes names, through the facade alone, the types a sweep
// hands out and back: the task and point a SweepOptions.PointRunner takes and
// returns, the progress SweepOptions.Status receives, and the report and the
// points Experiment.RunWith returns.
func TestFacadeSweepTypes(t *testing.T) {
	sc := disha.ExperimentScale{Radix: 4, MsgLen: 8, Warmup: 50, Measure: 100,
		Loads: []float64{0.2}, Seed: 5}
	spec := disha.Figure("4", sc)
	spec.Algs = spec.Algs[:2]
	var last disha.SweepStatus
	var ran atomic.Int32
	runner := func(_ <-chan struct{}, _ disha.PointTask, local func() (disha.PointResult, error)) (disha.PointResult, error) {
		ran.Add(1)
		return local()
	}
	res, rep, err := spec.RunWith(disha.SweepOptions{Parallel: 1, PointRunner: runner,
		Status: func(st disha.SweepStatus) { last = st }})
	if err != nil {
		t.Fatal(err)
	}
	var report *disha.SweepReport = rep
	if report.Completed != 2 || report.Failed() != 0 || last.Done != 2 || last.Total != 2 || ran.Load() != 2 {
		t.Fatalf("report %+v, last status %+v, %d points through the runner; want 2 of 2 points done", report, last, ran.Load())
	}
	var pts []disha.PointResult = res.Points[spec.Algs[0].Label]
	if len(pts) != 1 || pts[0].Delivered == 0 {
		t.Fatalf("%s points %+v", spec.Algs[0].Label, pts)
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
	if err := sim.KillLink(0, 0); err != nil {
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
