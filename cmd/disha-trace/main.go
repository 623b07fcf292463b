// Command disha-trace loads a JSONL telemetry dump produced by
// disha-sim -trace-out and prints a recovery post-mortem: what the run was,
// how often deadlock was presumed, how each recovery episode unfolded
// (the tracker's spans: presumed -> Token capture -> Deadlock Buffer ->
// Token release -> delivery, labeled true-cycle or false-presumption), what
// the flight recorder saw around each presumption, and how the sampled
// congestion series evolved.
//
// Usage:
//
//	disha-trace run.jsonl             # full post-mortem
//	disha-trace -pkt 1234 run.jsonl   # one packet's event history
//	disha-trace -episodes 20 run.jsonl
//	disha-trace episodes run.jsonl    # only the episode section
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "episodes" {
		runEpisodes(os.Args[2:])
		return
	}
	var (
		pkt      = flag.Int64("pkt", -1, "print the event history of one packet and exit")
		episodes = flag.Int("episodes", 10, "max recovery episodes to print")
		snaps    = flag.Int("snapshots", 4, "max flight-recorder snapshots to detail")
		version  = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: disha-trace [flags] <trace.jsonl>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	d := load(flag.Arg(0))

	if *pkt >= 0 {
		printPacket(d, *pkt)
		return
	}

	printMeta(d)
	printEventTotals(d)
	fmt.Println()
	printSpans(d, *episodes)
	printSnapshots(d, *snaps)
	printSeries(d)
	printCounters(d)
}

// dump is the trace file split by record type, in file order.
type dump struct {
	meta      map[string]string
	events    []telemetry.Line
	samples   []telemetry.Line
	snapshots []*telemetry.Snapshot
	spans     []*telemetry.EpisodeSpan
	counters  map[string]int64
	lastCycle int64
}

// load reads the trace file at path and splits it by record type; any
// failure exits 1 with one line. The torn last line a killed disha-sim
// leaves is not a failure: it is dropped with a warning.
func load(path string) *dump {
	f, err := os.Open(path)
	fail(err)
	lines, err := telemetry.ReadJSONL(f)
	f.Close()
	if errors.Is(err, telemetry.ErrTornTail) {
		fmt.Fprintf(os.Stderr, "disha-trace: warning: %v; reading the %d lines before it\n", err, len(lines))
		err = nil
	}
	fail(err)
	d := &dump{}
	for _, l := range lines {
		if l.Cycle > d.lastCycle {
			d.lastCycle = l.Cycle
		}
		switch l.Type {
		case "meta":
			d.meta = l.Meta
		case "event":
			d.events = append(d.events, l)
		case "sample":
			d.samples = append(d.samples, l)
		case "snapshot":
			if l.Snapshot != nil {
				d.snapshots = append(d.snapshots, l.Snapshot)
			}
		case "span":
			if l.Span != nil {
				d.spans = append(d.spans, l.Span)
			}
		case "counters":
			d.counters = l.Counters
		}
	}
	return d
}

// runEpisodes is the `episodes` subcommand: the post-mortem's episode
// section alone.
func runEpisodes(args []string) {
	fs := flag.NewFlagSet("episodes", flag.ExitOnError)
	limit := fs.Int("limit", 20, "max episode timelines to print")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: disha-trace episodes [-limit N] <trace.jsonl>")
		fs.PrintDefaults()
		os.Exit(2)
	}
	printSpans(load(fs.Arg(0)), *limit)
}

// printSpans renders the structured recovery-episode spans the tracker
// emitted — a misprediction-rate summary, one timeline per episode (at most
// limit), labeled true-cycle vs false-presumption — and cross-checks the
// labels against the flight recorder's TrueDeadlock verdicts.
func printSpans(d *dump, limit int) {
	fmt.Printf("recovery-episode spans (%d)\n", len(d.spans))
	if len(d.spans) == 0 {
		fmt.Println("  (none — run disha-sim with -trace-out and a deadlock-prone config)")
		return
	}
	spans := append([]*telemetry.EpisodeSpan(nil), d.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })

	trueN, memberN := 0, 0
	outcomes := map[string]int{}
	var resolveSum, resolveN, dbSum, dbN int64
	for _, s := range spans {
		if s.TrueCycle {
			trueN++
		}
		if s.Member {
			memberN++
		}
		outcomes[s.Outcome]++
		if s.Outcome != "open" {
			resolveSum += s.End - s.Start
			resolveN++
		}
		if s.Recover >= 0 && s.Outcome == "delivered" {
			dbSum += s.End - s.Recover
			dbN++
		}
	}
	falseN := len(spans) - trueN
	fmt.Printf("  verdicts: %d true-cycle, %d false-presumption (misprediction rate %.1f%%); %d presumed packets in a deadlocked set\n",
		trueN, falseN, 100*float64(falseN)/float64(len(spans)), memberN)
	fmt.Printf("  outcomes: %d delivered, %d killed, ", outcomes["delivered"], outcomes["killed"])
	if n := outcomes["dropped"]; n > 0 { // chaos campaigns only
		fmt.Printf("%d dropped by reconfiguration, ", n)
	}
	fmt.Printf("%d open at end of run\n", outcomes["open"])
	if resolveN > 0 {
		fmt.Printf("  mean time-to-resolve %d cycles", resolveSum/resolveN)
		if dbN > 0 {
			fmt.Printf("; mean time-in-DB %d cycles over %d recovered deliveries", dbSum/dbN, dbN)
		}
		fmt.Println()
	}

	fmt.Println("\ntimelines")
	for i, s := range spans {
		if i >= limit {
			fmt.Printf("  ... %d more (raise the limit)\n", len(spans)-limit)
			break
		}
		fmt.Println("  " + spanTimeline(s))
	}

	printAgreement(d, spans)
}

// spanTimeline renders one span as a single arrow-chain line.
func spanTimeline(s *telemetry.EpisodeSpan) string {
	verdict := "false-presumption"
	if s.TrueCycle {
		verdict = "true-cycle"
		if s.Member {
			verdict += "/member"
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%-4d pkt %-6d %-18s presumed@%d node=%d", s.Seq, s.Pkt, verdict, s.Start, s.Node)
	if s.Capture >= 0 {
		fmt.Fprintf(&sb, " -> token@%d", s.Capture)
	}
	if s.Recover >= 0 {
		fmt.Fprintf(&sb, " -> db-lane@%d", s.Recover)
	}
	if s.Release >= 0 {
		fmt.Fprintf(&sb, " -> release@%d", s.Release)
	}
	if s.Outcome == "open" {
		fmt.Fprintf(&sb, " -> open at end of run (@%d)", s.End)
	} else {
		fmt.Fprintf(&sb, " -> %s@%d (+%d cycles)", s.Outcome, s.End, s.End-s.Start)
	}
	return sb.String()
}

// printAgreement cross-checks the spans' true-cycle labels against the
// flight recorder: a snapshot's trigger packet opened its episode the same
// cycle, and both verdicts come from the same wait-for-graph analysis, so
// they must agree. Disagreement means the span labels can't be trusted.
func printAgreement(d *dump, spans []*telemetry.EpisodeSpan) {
	if len(d.snapshots) == 0 {
		return
	}
	bySeq := map[[2]int64]*telemetry.EpisodeSpan{}
	for _, s := range spans {
		bySeq[[2]int64{s.Start, s.Pkt}] = s
	}
	matched, agreed := 0, 0
	for _, snap := range d.snapshots {
		s, ok := bySeq[[2]int64{snap.Cycle, snap.TriggerPkt}]
		if !ok {
			continue
		}
		matched++
		if s.TrueCycle == snap.TrueDeadlock {
			agreed++
		}
	}
	fmt.Printf("\nflight-recorder agreement: %d/%d trigger spans match the snapshot TrueDeadlock verdict\n",
		agreed, matched)
	if agreed != matched {
		fmt.Println("  WARNING: span labels disagree with flight-recorder verdicts")
	}
}

func printMeta(d *dump) {
	fmt.Println("run")
	if len(d.meta) == 0 {
		fmt.Println("  (no meta record)")
		return
	}
	keys := make([]string, 0, len(d.meta))
	for k := range d.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-10s %s\n", k, d.meta[k])
	}
}

func printEventTotals(d *dump) {
	fmt.Println("\nevents")
	if len(d.events) == 0 {
		fmt.Println("  (none recorded)")
		return
	}
	counts := map[string]int{}
	for _, e := range d.events {
		counts[e.Kind]++
	}
	// Canonical kind order (lifecycle first, then recovery machinery).
	order := telemetry.KindStrings()
	seen := map[string]bool{}
	for _, k := range order {
		if counts[k] > 0 {
			fmt.Printf("  %-14s %d\n", k, counts[k])
		}
		seen[k] = true
	}
	for k, c := range counts {
		if !seen[k] {
			fmt.Printf("  %-14s %d\n", k, c)
		}
	}
}

func printSnapshots(d *dump, max int) {
	fmt.Printf("\nflight-recorder snapshots (%d)\n", len(d.snapshots))
	for i, s := range d.snapshots {
		if i >= max {
			fmt.Printf("  ... %d more (raise -snapshots)\n", len(d.snapshots)-max)
			break
		}
		deadlocked := 0
		for _, n := range s.WFG {
			if n.Deadlocked {
				deadlocked++
			}
		}
		fmt.Printf("  @%d trigger pkt %d at node %d: %d blocked headers, %d in a true deadlock (true_deadlock=%v)\n",
			s.Cycle, s.TriggerPkt, s.TriggerNode, len(s.WFG), deadlocked, s.TrueDeadlock)
		if len(s.Frames) > 0 {
			fmt.Printf("    %d frames (%d..%d); routers saturated first: %s\n",
				len(s.Frames), s.Frames[0].Cycle, s.Frames[len(s.Frames)-1].Cycle,
				hottestRouters(s.Frames, 5))
		}
	}
}

// hottestRouters ranks routers by cumulative blocked-header count over the
// retained frames — the ones that congested first and hardest.
func hottestRouters(frames []telemetry.Frame, top int) string {
	blocked := map[int32]int64{}
	first := map[int32]int64{}
	for _, fr := range frames {
		for _, r := range fr.Routers {
			blocked[r.Node] += int64(r.Blocked)
			if _, ok := first[r.Node]; !ok {
				first[r.Node] = fr.Cycle
			}
		}
	}
	type rank struct {
		node  int32
		score int64
	}
	var ranks []rank
	for n, s := range blocked {
		ranks = append(ranks, rank{n, s})
	}
	sort.Slice(ranks, func(i, j int) bool {
		if ranks[i].score != ranks[j].score {
			return ranks[i].score > ranks[j].score
		}
		if first[ranks[i].node] != first[ranks[j].node] {
			return first[ranks[i].node] < first[ranks[j].node]
		}
		return ranks[i].node < ranks[j].node // ranks came out of a map
	})
	if len(ranks) > top {
		ranks = ranks[:top]
	}
	parts := make([]string, len(ranks))
	for i, r := range ranks {
		parts[i] = fmt.Sprintf("node %d (blocked %d cycles, from @%d)", r.node, r.score, first[r.node])
	}
	if len(parts) == 0 {
		return "(none blocked)"
	}
	return strings.Join(parts, ", ")
}

func printSeries(d *dump) {
	fmt.Println("\nsampled series")
	if len(d.samples) == 0 {
		fmt.Println("  (none)")
		return
	}
	type agg struct {
		n                    int
		min, max, last, mean float64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range d.samples {
		a := byName[s.Name]
		if a == nil {
			a = &agg{min: s.Value, max: s.Value}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.mean += s.Value
		a.last = s.Value
		if s.Value < a.min {
			a.min = s.Value
		}
		if s.Value > a.max {
			a.max = s.Value
		}
	}
	sort.Strings(names)
	for _, name := range names {
		a := byName[name]
		fmt.Printf("  %-28s %4d samples  min %-8g mean %-8.4g max %-8g last %g\n",
			name, a.n, a.min, a.mean/float64(a.n), a.max, a.last)
	}
}

func printCounters(d *dump) {
	if d.counters == nil {
		return
	}
	fmt.Printf("\nfinal counters @%d\n", d.lastCycle)
	keys := make([]string, 0, len(d.counters))
	for k := range d.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-18s %d\n", k, d.counters[k])
	}
}

func printPacket(d *dump, pkt int64) {
	found := false
	for _, e := range d.events {
		if e.Pkt == pkt {
			found = true
			fmt.Printf("[%6d] %-13s node=%d\n", e.Cycle, e.Kind, e.Node)
		}
	}
	if !found {
		fmt.Printf("no events for pkt %d\n", pkt)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-trace:", err)
		os.Exit(1)
	}
}
