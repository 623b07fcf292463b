package network

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/routing"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestCounterTableCoversStruct holds the Counters struct to its one table: a
// field without a row (or a row without a field) fails here, and so does a
// counter that is missing from — or wired to the wrong value in — Walk,
// Each/CountersMap or /metrics. Adding a counter is a struct field plus a
// table row; this test is what makes forgetting the row impossible.
func TestCounterTableCoversStruct(t *testing.T) {
	// A deadlock-prone run so most counters are non-zero and distinct.
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(2), 0.9, 7)
	cfg.Router.VCs = 1
	n := mustNet(t, cfg)
	hub := n.EnableTelemetry(telemetry.Options{SampleEvery: -1})
	n.Run(600)
	c := n.Counters()
	if c.TimeoutEvents == 0 || c.TokenSeizures == 0 || c.MisrouteHops == 0 {
		t.Fatalf("run too quiet to tell counters apart: %+v", c)
	}

	// Every struct field is reached by exactly one row.
	v := reflect.ValueOf(&c).Elem()
	rowOf := make(map[string]int)
	for i, row := range counterTable {
		p := unsafe.Pointer(row.field(&c))
		found := false
		for f := 0; f < v.NumField(); f++ {
			if v.Field(f).Addr().UnsafePointer() != p {
				continue
			}
			name := v.Type().Field(f).Name
			if j, dup := rowOf[name]; dup {
				t.Errorf("Counters.%s has two table rows (%d and %d)", name, j, i)
			}
			rowOf[name], found = i, true
		}
		if !found {
			t.Errorf("table row %d (%s) points at no Counters field", i, row.key)
		}
	}
	for f := 0; f < v.NumField(); f++ {
		if _, ok := rowOf[v.Type().Field(f).Name]; !ok {
			t.Errorf("Counters.%s has no counterTable row: it would be missing from snapshots, the JSONL stream, /metrics and the report",
				v.Type().Field(f).Name)
		}
	}

	// Walk codes every row's field, 8 bytes each, in table order, and decodes
	// back to the same value.
	var enc snapshot.Codec
	c.Walk(&enc)
	if len(enc.Bytes()) != 8*len(counterTable) {
		t.Errorf("Walk wrote %d bytes for %d counters", len(enc.Bytes()), len(counterTable))
	}
	var back Counters
	dec := snapshot.NewDecoder(enc.Bytes())
	back.Walk(dec)
	if dec.Err() != nil || back != c {
		t.Errorf("Walk round trip: %v\n got %+v\nwant %+v", dec.Err(), back, c)
	}

	// Each and CountersMap carry every row under a distinct key.
	m := n.CountersMap()
	if len(m) != len(counterTable) {
		t.Errorf("CountersMap has %d keys for %d counters", len(m), len(counterTable))
	}
	for _, row := range counterTable {
		if got, ok := m[row.key]; !ok || got != *row.field(&c) {
			t.Errorf("CountersMap[%q] = %d, %v; the counter is %d", row.key, got, ok, *row.field(&c))
		}
	}

	// /metrics exports every row's family: one series for a network-wide
	// row, one per router (summing to the counter) for a per-router row.
	var text bytes.Buffer
	if err := hub.Registry.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, row := range counterTable {
		sum, series := int64(0), 0
		for _, line := range strings.Split(text.String(), "\n") {
			name, value, ok := strings.Cut(line, " ")
			if !ok || (name != row.metric && !strings.HasPrefix(name, row.metric+"{")) {
				continue
			}
			x, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			sum += x
			series++
		}
		wantSeries := 1
		if row.perRouter != nil {
			wantSeries = n.topo.Nodes()
		}
		if series != wantSeries || sum != *row.field(&c) {
			t.Errorf("/metrics %s: %d series summing to %d, want %d summing to %d",
				row.metric, series, sum, wantSeries, *row.field(&c))
		}
	}
}

// TestReconfigKindText: a kind's schedule-file name round-trips through the
// text marshalers String shares its table with, and an unknown name or value
// is an error listing the accepted names.
func TestReconfigKindText(t *testing.T) {
	for k := ReconfigKillLink; k <= ReconfigHealLink; k++ {
		text, err := k.MarshalText()
		if err != nil || string(text) != k.String() {
			t.Fatalf("%d.MarshalText() = %q, %v", int(k), text, err)
		}
		var back ReconfigKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
	}
	// Kinds 2 and 3 were the removed router kill and heal.
	for _, k := range []ReconfigKind{2, 3, 99} {
		if _, err := k.MarshalText(); err == nil {
			t.Errorf("ReconfigKind(%d) marshalled", int(k))
		}
	}
	for _, name := range []string{"explode", "kill-router", "heal-router"} {
		var k ReconfigKind
		if err := k.UnmarshalText([]byte(name)); err == nil || !strings.Contains(err.Error(), "(want kill-link, heal-link)") {
			t.Errorf("UnmarshalText(%s): err = %v, want one listing the accepted names", name, err)
		}
	}
}
