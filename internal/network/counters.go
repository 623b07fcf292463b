package network

import (
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Counters are network-wide event totals since construction.
type Counters struct {
	Cycles           sim.Cycle
	PacketsOffered   int64 // generated by sources
	PacketsInjected  int64 // headers accepted into the network
	PacketsDelivered int64 // tails consumed at destinations
	FlitsDelivered   int64
	PacketsKilled    int64 // abort-retry kills (each re-counts as injected on retry)
	// Reconfiguration loss accounting (see reconfig.go): PacketsLost counts
	// injected packets dropped because a kill event removed flits they had
	// committed to the network (FlitsLost is those discarded flits). No link
	// event drops a packet before injection, so after a drain
	// PacketsInjected - PacketsKilled == PacketsDelivered + PacketsLost.
	PacketsLost     int64
	FlitsLost       int64
	TokenSeizures   int64 // recoveries initiated by capturing the Token (sequential mode)
	Recoveries      int64 // packets switched onto the Deadlock Buffer lane (all modes)
	TimeoutEvents   int64 // headers whose T_elapsed first crossed T_out
	FalseDetections int64 // presumed headers that moved normally afterwards
	MisrouteHops    int64
	Preemptions     int64 // packet-by-packet crossbar preemptions
	BlockedCycles   int64 // header-cycles spent blocked across all routers
	TokenTransit    int64 // cycles the recovery Token spent circulating free
	TokenHold       int64 // cycles the recovery Token spent held
}

// counterTable is the one enumeration of Counters: a row per field, in the
// order the DISHANET format stores them (which is why it is not the
// struct's order). Walk, CountersMap/Each, the /metrics registration and the
// run report all read it, so a counter added to the struct and given a row
// here reaches every one of them (TestCounterTableCoversStruct holds the
// struct to the table). A row with perRouter set is the sum of a router.Stats
// field: /metrics exports that family per router, labelled by node, instead
// of as one network-wide series. A row with derived set (perRouter rows
// included) is kept elsewhere — the clock, the sources, the Token or the
// routers' Stats — and Network.Counters adds it to the stored zero, so Walk
// does not code it.
var counterTable = [...]struct {
	field        func(*Counters) *int64
	key          string // JSONL and CountersMap key; the report prints it with spaces
	metric, help string // /metrics family
	perRouter    func(router.Stats) int64
	derived      bool
}{
	{func(c *Counters) *int64 { return (*int64)(&c.Cycles) }, "cycles", "disha_cycles_total", "Simulation cycles executed.", nil, true},
	{func(c *Counters) *int64 { return &c.PacketsOffered }, "packets_offered", "disha_packets_offered_total", "Packets generated by traffic sources.", nil, true},
	{func(c *Counters) *int64 { return &c.PacketsInjected }, "packets_injected", "disha_packets_injected_total", "Packet headers accepted into the network.", nil, false},
	{func(c *Counters) *int64 { return &c.PacketsDelivered }, "packets_delivered", "disha_packets_delivered_total", "Packet tails consumed at destinations.", nil, false},
	{func(c *Counters) *int64 { return &c.FlitsDelivered }, "flits_delivered", "disha_flits_delivered_total", "Flits consumed at destinations.", nil, false},
	{func(c *Counters) *int64 { return &c.PacketsKilled }, "packets_killed", "disha_packets_killed_total", "Packets killed by abort-retry recovery.", nil, false},
	{func(c *Counters) *int64 { return &c.TokenSeizures }, "token_seizures", "disha_token_seizures_total", "Recovery Token captures.", nil, true},
	{func(c *Counters) *int64 { return &c.Recoveries }, "recoveries", "disha_recoveries_total", "Packets switched onto the Deadlock Buffer lane here.",
		func(s router.Stats) int64 { return s.Recoveries }, true},
	{func(c *Counters) *int64 { return &c.TimeoutEvents }, "timeout_events", "disha_timeouts_total", "Headers whose T_elapsed first crossed T_out here.",
		func(s router.Stats) int64 { return s.TimeoutEvents }, true},
	{func(c *Counters) *int64 { return &c.FalseDetections }, "false_detections", "disha_false_detections_total", "Presumed headers here that moved normally afterwards.",
		func(s router.Stats) int64 { return s.FalseDetections }, true},
	{func(c *Counters) *int64 { return &c.MisrouteHops }, "misroute_hops", "disha_misroute_hops_total", "Non-profitable hops taken out of this router.",
		func(s router.Stats) int64 { return s.MisrouteHops }, true},
	{func(c *Counters) *int64 { return &c.Preemptions }, "preemptions", "disha_preemptions_total", "Packet-by-packet crossbar connections preempted by the Deadlock Buffer here.",
		func(s router.Stats) int64 { return s.Preemptions }, true},
	{func(c *Counters) *int64 { return &c.BlockedCycles }, "blocked_cycles", "disha_blocked_cycles_total", "Header-cycles spent blocked at this router.",
		func(s router.Stats) int64 { return s.BlockedCycles }, true},
	{func(c *Counters) *int64 { return &c.TokenTransit }, "token_transit", "disha_token_transit_cycles", "Cycles the recovery Token spent circulating free.", nil, true},
	{func(c *Counters) *int64 { return &c.TokenHold }, "token_hold", "disha_token_hold_cycles", "Cycles the recovery Token spent held by recovering packets.", nil, true},
	{func(c *Counters) *int64 { return &c.PacketsLost }, "packets_lost", "disha_packets_lost_total", "In-flight packets dropped by reconfiguration events.", nil, false},
	{func(c *Counters) *int64 { return &c.FlitsLost }, "flits_lost", "disha_flits_lost_total", "Buffered flits discarded by reconfiguration events.", nil, false},
}

// Walk codes the stored rows of a Counters value, for the network snapshot
// and the state digest; the derived rows are coded where they are kept.
func (ctr *Counters) Walk(c *snapshot.Codec) {
	for _, row := range counterTable {
		if !row.derived {
			c.I64(row.field(ctr))
		}
	}
}

// Each calls f with every counter's key and value, in table order.
func (ctr Counters) Each(f func(key string, v int64)) {
	for _, row := range counterTable {
		f(row.key, *row.field(&ctr))
	}
}

// CountersMap flattens the Counters snapshot for JSONL export.
func (n *Network) CountersMap() map[string]int64 {
	m := make(map[string]int64, len(counterTable))
	n.Counters().Each(func(key string, v int64) { m[key] = v })
	return m
}
