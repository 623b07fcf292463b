package chaos

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func testConfig(topo topology.Graph, load float64, seed uint64) network.Config {
	rc := router.Default()
	rc.Timeout = 8
	return network.Config{
		Topo:      topo,
		Router:    rc,
		Algorithm: routing.Disha(2),
		Pattern:   traffic.Uniform(topo),
		LoadRate:  load,
		MsgLen:    8,
		Seed:      seed,
	}
}

func mustNet(t *testing.T, cfg network.Config) *network.Network {
	t.Helper()
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestGenerateDeterministic: the same (topology, seed, knobs) must yield a
// byte-identical schedule, and a different seed a different one.
func TestGenerateDeterministic(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	cfg := CampaignConfig{Topo: topo, Seed: 42, Events: 30, RouterKills: true,
		Algorithms: []string{"disha-m1", "disha-m3"}}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(a.Events) != 30 {
		t.Fatalf("wanted 30 events, got %d", len(a.Events))
	}
}

// TestScheduleJSONRoundTrip: Save → Load preserves the schedule exactly.
func TestScheduleJSONRoundTrip(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	s, err := Generate(CampaignConfig{Topo: topo, Seed: 7, Events: 10})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, loaded) {
		t.Fatalf("round trip changed the schedule:\n%+v\n%+v", s, loaded)
	}
}

// TestScheduleValidation rejects malformed schedules, and tells a typo from
// infeasibility: a swap naming no routing function is refused at load time
// with the event index and the accepted names, while every spelling -alg
// accepts loads (whether the live network can apply it is decided, and
// logged, at apply time).
func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{Events: []network.ReconfigEvent{{Cycle: 10, Kind: network.ReconfigKind(99)}}},
		{Events: []network.ReconfigEvent{{Cycle: -1, Kind: network.ReconfigKillLink}}},
		{Events: []network.ReconfigEvent{{Cycle: 20, Kind: network.ReconfigKillLink}, {Cycle: 10, Kind: network.ReconfigHealLink}}},
		{Events: []network.ReconfigEvent{{Cycle: 5, Kind: network.ReconfigKillLink, Node: -1}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("schedule %d accepted", i)
		}
	}
	for _, data := range []string{"{not json", `{"events":[{"cycle":10,"kind":"explode"}]}`} {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("Parse(%s) accepted", data)
		}
	}

	swap := func(alg string) []byte {
		return []byte(`{"events":[{"cycle":1,"kind":"kill-link"},{"cycle":50,"kind":"swap-algorithm","alg":"` + alg + `"}]}`)
	}
	_, err := Parse(swap("trun"))
	if err == nil {
		t.Fatal(`a swap to "trun" loaded`)
	}
	for _, want := range []string{"event 1", `"trun"`, "turn-negative-first", "disha-m<N>"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	for _, alg := range append(routing.Names(), "disha-m3") {
		s, err := Parse(swap(alg))
		if err != nil {
			t.Errorf("swap to %q refused: %v", alg, err)
		} else if s.Events[1].Alg != alg {
			t.Errorf("swap to %q loaded as %q", alg, s.Events[1].Alg)
		}
	}
}

// TestCampaignAcceptance is the PR's acceptance criterion: a seeded chaos
// campaign with at least 20 kill/heal events on a 16x16 torus runs to
// completion with zero undelivered non-dropped packets, reports per-event
// recovery latency and time-to-reconverge, and replays byte-identically
// from a mid-campaign checkpoint.
func TestCampaignAcceptance(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("16x16 campaign is slow; CI runs it in a dedicated non-race step")
	}
	campaignAcceptance(t, topology.MustTorus(16, 16), router.RecoverySequential)
}

// TestCampaignAcceptanceConcurrent runs the same campaign under concurrent
// recovery: each kill and heal relabels the two lanes and drops the
// packets recovering on them, and the ledger must still balance.
func TestCampaignAcceptanceConcurrent(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("16x16 campaign is slow; CI runs it in a dedicated non-race step")
	}
	campaignAcceptance(t, topology.MustTorus(16, 16), router.RecoveryConcurrent)
}

// campaignAcceptance runs TestCampaignAcceptance's 24-event campaign on topo
// with recovery: it drains with every injected packet delivered or counted
// lost, every applied event reconverges, and a mid-campaign checkpoint
// replays byte-identically.
func campaignAcceptance(t *testing.T, topo topology.Graph, recovery router.RecoveryMode) {
	sched, err := Generate(CampaignConfig{
		Topo: topo, Seed: 11, Events: 24, Start: 200, Spacing: 150, RouterKills: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) < 20 {
		t.Fatalf("campaign too small: %d events", len(sched.Events))
	}

	cfg := testConfig(topo, 0.35, 11)
	cfg.Router.Recovery = recovery
	net := mustNet(t, cfg)
	run, err := NewRunner(net, sched)
	if err != nil {
		t.Fatal(err)
	}
	run.RunTo(3500)

	// Mid-campaign checkpoint for the replay half below.
	var ckpt bytes.Buffer
	if err := net.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}

	run.RunTo(5500)
	net.StopInjection()
	if !net.RunUntilDrained(120000) {
		t.Fatalf("campaign did not drain: in-flight=%d", net.InFlight())
	}
	run.Sync()

	c := net.Counters()
	if c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		t.Fatalf("undelivered non-dropped packets: injected=%d delivered=%d lost=%d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	}
	t.Logf("%s: injected %d, delivered %d, lost %d, %d recoveries, drained at cycle %d",
		recovery, c.PacketsInjected, c.PacketsDelivered, c.PacketsLost, c.Recoveries, net.Now())
	sum := run.Summary()
	applied := 0
	for _, rep := range run.Reports() {
		if !rep.Applied {
			continue
		}
		applied++
		if rep.RecoveryCycles < 0 || rep.ReconvergeCycles < 0 {
			t.Errorf("event %v never reconverged (recovery=%d reconverge=%d)",
				rep.ReconfigEvent, rep.RecoveryCycles, rep.ReconvergeCycles)
		}
	}
	if applied < 20 {
		t.Fatalf("fewer than 20 events applied: %d (skipped %d)", applied, sum.Skipped)
	}
	if sum.Open != 0 {
		t.Fatalf("%d events still open after drain", sum.Open)
	}
	finalDigest := net.FingerprintHex()
	finalLog := net.ReconfigLog()

	// Replay: fresh network, restore the checkpoint, re-arm the same
	// schedule, drive to the same point — byte-identical state and log.
	net2 := mustNet(t, cfg)
	if err := net2.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	run2, err := NewRunner(net2, sched)
	if err != nil {
		t.Fatal(err)
	}
	run2.RunTo(5500)
	net2.StopInjection()
	if !net2.RunUntilDrained(120000) {
		t.Fatal("replay did not drain")
	}
	if got := net2.FingerprintHex(); got != finalDigest {
		t.Fatalf("replay diverged: %s vs %s", got, finalDigest)
	}
	log2 := net2.ReconfigLog()
	if !reflect.DeepEqual(finalLog, log2) {
		t.Fatalf("replayed reconfiguration log differs:\n%v\n%v", finalLog, log2)
	}
}

// TestCampaignRaceClean runs a moderate campaign with router kills twice and
// compares the fingerprints — small enough for the race detector, which is
// the point: the 16x16 acceptance campaign self-skips under -race, so this is
// the campaign `go test -race ./internal/chaos` actually steps.
func TestCampaignRaceClean(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	sched, err := Generate(CampaignConfig{
		Topo: topo, Seed: 5, Events: 12, Start: 150, Spacing: 200, RouterKills: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		net := mustNet(t, testConfig(topo, 0.4, 5))
		r, err := NewRunner(net, sched)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(4000)
		return net.FingerprintHex()
	}
	if first, again := run(), run(); first != again {
		t.Fatalf("repeated campaign diverged: %s vs %s", first, again)
	}
}

// TestRunnerPresenceInvisible: driving a network through a Runner must not
// perturb it — fingerprints match arming the schedule and stepping raw.
func TestRunnerPresenceInvisible(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	sched, err := Generate(CampaignConfig{Topo: topo, Seed: 3, Events: 6, Start: 100, Spacing: 150})
	if err != nil {
		t.Fatal(err)
	}

	raw := mustNet(t, testConfig(topo, 0.4, 5))
	if err := raw.ScheduleReconfig(sched.Events); err != nil {
		t.Fatal(err)
	}
	raw.Run(1500)

	observed := mustNet(t, testConfig(topo, 0.4, 5))
	run, err := NewRunner(observed, sched)
	if err != nil {
		t.Fatal(err)
	}
	run.Run(1500)

	if a, b := raw.FingerprintHex(), observed.FingerprintHex(); a != b {
		t.Fatalf("runner observation perturbed the simulation: %s vs %s", a, b)
	}
}

// TestInfeasibleEventsSkippedDeterministically: a schedule naming a
// disconnecting kill is not an error — the network logs it as skipped, and
// both kernel variants agree on the outcome.
func TestInfeasibleEventsSkippedDeterministically(t *testing.T) {
	topo := topology.MustMesh(2, 2)
	s := &Schedule{Events: []network.ReconfigEvent{
		{Cycle: 50, Kind: network.ReconfigKillLink, Node: 0, Port: topology.PortFor(0, 1)},
		// This second cut would isolate corner 0: it must be skipped.
		{Cycle: 100, Kind: network.ReconfigKillLink, Node: 0, Port: topology.PortFor(1, 1)},
	}}
	net := mustNet(t, testConfig(topo, 0.0, 1))
	run, err := NewRunner(net, s)
	if err != nil {
		t.Fatal(err)
	}
	run.Run(200)
	reps := run.Reports()
	if len(reps) != 2 {
		t.Fatalf("wanted 2 reports, got %d", len(reps))
	}
	if !reps[0].Applied || reps[1].Applied {
		t.Fatalf("wanted applied+skipped, got %v / %v", reps[0].ReconfigOutcome, reps[1].ReconfigOutcome)
	}
	if reps[1].Reason == "" {
		t.Fatal("skipped event has no reason")
	}
}

// TestCampaignAcceptanceFullMesh re-validates the campaign acceptance
// criterion on a non-cube topology class: a seeded kill/heal campaign on a
// 16-node full mesh runs to completion with a balanced loss ledger
// (injected = delivered + lost), every applied event reconverges, and the
// final state is reproducible from the same seed. The full mesh exercises
// the digraph path end-to-end: BFS Deadlock Buffer lane tables, their
// rebuild after reconfiguration, and canonical link keying without cube
// port conventions.
func TestCampaignAcceptanceFullMesh(t *testing.T) {
	topo := topology.MustFullMesh(16)
	sched, err := Generate(CampaignConfig{
		Topo: topo, Seed: 9, Events: 16, Start: 150, Spacing: 120, RouterKills: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func() (string, *network.Network, *Runner) {
		cfg := testConfig(topo, 0.25, 9)
		net := mustNet(t, cfg)
		r, err := NewRunner(net, sched)
		if err != nil {
			t.Fatal(err)
		}
		r.RunTo(2600)
		net.StopInjection()
		if !net.RunUntilDrained(60000) {
			t.Fatalf("campaign did not drain: in-flight=%d", net.InFlight())
		}
		r.Sync()
		return net.FingerprintHex(), net, r
	}

	digest, net, runner := run()

	c := net.Counters()
	if c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		t.Fatalf("loss ledger unbalanced: injected=%d delivered=%d lost=%d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	}
	if c.PacketsDelivered == 0 {
		t.Fatal("campaign delivered nothing")
	}
	sum := runner.Summary()
	if sum.Applied == 0 {
		t.Fatalf("no events applied (skipped %d)", sum.Skipped)
	}
	if sum.Open != 0 {
		t.Fatalf("%d events still open after drain", sum.Open)
	}
	for _, rep := range runner.Reports() {
		if rep.Applied && (rep.RecoveryCycles < 0 || rep.ReconvergeCycles < 0) {
			t.Errorf("event %v never reconverged (recovery=%d reconverge=%d)",
				rep.ReconfigEvent, rep.RecoveryCycles, rep.ReconvergeCycles)
		}
	}

	// Same seed, same schedule: the rerun must land on the same digest.
	digest2, _, _ := run()
	if digest2 != digest {
		t.Fatalf("rerun diverged: %s vs %s", digest2, digest)
	}
}

// FuzzScheduleParse covers the one external file format three binaries read:
// whatever Parse accepts is armed on a 4x4 torus and on fullmesh-4 and
// stepped 64 cycles. A refused file or a clean run (infeasible events logged
// as skipped) — never a panic.
func FuzzScheduleParse(f *testing.F) {
	// The reproducer: a swap to DOR, which a coordinate-free graph cannot run.
	f.Add([]byte(`{"events":[{"cycle":50,"kind":"swap-algorithm","alg":"dor"}]}`))
	f.Add([]byte(`{"name":"typo","events":[{"cycle":1,"kind":"swap-algorithm","alg":"trun"}]}`))
	f.Add([]byte(`{"events":[{"cycle":3,"kind":"kill-router","node":2},{"cycle":9,"kind":"swap-algorithm","alg":"turn"},` +
		`{"cycle":20,"kind":"heal-router","node":2},{"cycle":20,"kind":"kill-link","node":99,"port":7}]}`))
	for _, topo := range []topology.Graph{topology.MustTorus(4, 4), topology.MustFullMesh(4)} {
		s, err := Generate(CampaignConfig{Topo: topo, Seed: 1, Events: 8, Start: 2, Spacing: 8,
			RouterKills: true, Algorithms: routing.Names()})
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		for _, topo := range []topology.Graph{topology.MustTorus(4, 4), topology.MustFullMesh(4)} {
			net := mustNet(t, testConfig(topo, 0.3, 1))
			run, err := NewRunner(net, s)
			if err != nil {
				t.Fatalf("Parse accepted a schedule NewRunner refuses: %v", err)
			}
			run.Run(64)
			if err := net.CheckInvariants(); err != nil {
				t.Fatalf("%s after the schedule: %v", topo.Name(), err)
			}
		}
	})
}
