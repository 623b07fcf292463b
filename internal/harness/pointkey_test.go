package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
)

// keyedPoint is tinySpec narrowed to one point and normalized.
func keyedPoint(t testing.TB) *Spec {
	s := tinySpec()
	s.Algs, s.Loads = s.Algs[:1], s.Loads[:1]
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// roundTrip checks that ParsePointKey reads key back to a spec and replica
// that encode to key again, and returns that spec.
func roundTrip(t *testing.T, key string, replica int) *Spec {
	t.Helper()
	s, rep, err := ParsePointKey(key)
	if err != nil {
		t.Fatalf("ParsePointKey(%s): %v", key, err)
	}
	if again := s.PointKey(s.Algs[0].Label, s.Loads[0], rep); again != key || rep != replica {
		t.Fatalf("round trip:\n key %s\ngave %s (replica %d, want %d)", key, again, rep, replica)
	}
	return s
}

// TestPointKeyCoversEveryField changes each field of Spec and of AlgSpec, one
// at a time, on a normalized one-point spec: every change must change the key
// — nothing that can change the result bytes may share one — and every key
// must read back to the spec it encodes. A field with no entry in the tables
// below fails the test, so a new field is keyed the day it is added. Every
// point of every figure at both scales round-trips too.
func TestPointKeyCoversEveryField(t *testing.T) {
	specChange := map[string]func(*Spec){
		"Name":           func(s *Spec) { s.Name = "other" },
		"Topology":       func(s *Spec) { s.Topology = "mesh-4x4" },
		"Traffic":        func(s *Spec) { s.Traffic = "bit-reversal" },
		"Loads":          func(s *Spec) { s.Loads[0] = 0.3 },
		"MsgLen":         func(s *Spec) { s.MsgLen = 12 },
		"VCs":            func(s *Spec) { s.VCs = 3 },
		"BufferDepth":    func(s *Spec) { s.BufferDepth = 3 },
		"Alloc":          func(s *Spec) { s.Alloc = router.PacketByPacket },
		"Warmup":         func(s *Spec) { s.Warmup = 301 },
		"Measure":        func(s *Spec) { s.Measure = 801 },
		"Seed":           func(s *Spec) { s.Seed = 43 },
		"TokenHops":      func(s *Spec) { s.TokenHops = 1 },
		"WFGSampleEvery": func(s *Spec) { s.WFGSampleEvery = 200 },
		"Batches":        func(s *Spec) { s.Batches = 2 },
		"Chaos": func(s *Spec) {
			s.Chaos = []network.ReconfigEvent{{Cycle: 400, Kind: network.ReconfigKillLink, Node: 5, Port: 1}}
		},
		"Throttle":        func(s *Spec) { s.Throttle = 3 },
		"Rx":              func(s *Spec) { s.Rx = 2 },
		"HotspotFraction": func(s *Spec) { f := 0.1; s.HotspotFraction = &f },
	}
	algChange := map[string]func(*AlgSpec){
		"Label":     func(a *AlgSpec) { a.Label = "renamed" },
		"Algorithm": func(a *AlgSpec) { a.Algorithm = routing.Disha(3) },
		"Selection": func(a *AlgSpec) { a.Selection = routing.MinCongestion() },
		"Recovery":  func(a *AlgSpec) { a.Recovery = false },
		"Mode":      func(a *AlgSpec) { a.Mode = router.RecoveryConcurrent },
		"Timeout":   func(a *AlgSpec) { a.Timeout = 16 },
	}
	base := keyedPoint(t)
	baseKey := base.PointKey(base.Algs[0].Label, base.Loads[0], 0)
	roundTrip(t, baseKey, 0)
	check := func(field string, change func(*Spec)) {
		s := keyedPoint(t)
		change(s)
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		key := s.PointKey(s.Algs[0].Label, s.Loads[0], 0)
		if key == baseKey {
			t.Errorf("changing %s leaves the point key as it was", field)
		}
		if back := roundTrip(t, key, 0); !reflect.DeepEqual(back, s) {
			t.Errorf("%s: the key reads back as\n%+v\nwant\n%+v", field, back, s)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Spec{})) {
		if f.Name == "Algs" {
			continue
		}
		if change, ok := specChange[f.Name]; ok {
			check(f.Name, change)
		} else {
			t.Errorf("Spec.%s: no change to try; add one to specChange", f.Name)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(AlgSpec{})) {
		if change, ok := algChange[f.Name]; ok {
			check("AlgSpec."+f.Name, func(s *Spec) { change(&s.Algs[0]) })
		} else {
			t.Errorf("AlgSpec.%s: no change to try; add one to algChange", f.Name)
		}
	}
	roundTrip(t, base.PointKey(base.Algs[0].Label, base.Loads[0], 3), 3)

	// A field's default encodes as absent, so the keys written before the
	// field existed still name their points.
	for field, setDefault := range map[string]func(*Spec){
		"Throttle":        func(s *Spec) { s.Throttle = 0 },
		"Rx":              func(s *Spec) { s.Rx = router.Default().ReceptionChannels },
		"HotspotFraction": func(s *Spec) { f := hotspotFraction; s.HotspotFraction = &f },
		"AlgSpec.Mode":    func(s *Spec) { s.Algs[0].Mode = router.RecoverySequential },
	} {
		s := keyedPoint(t)
		setDefault(s)
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if key := s.PointKey(s.Algs[0].Label, s.Loads[0], 0); key != baseKey {
			t.Errorf("%s at its default moves the key:\n%s\nwant\n%s", field, key, baseKey)
		}
	}

	for _, sc := range []Scale{PaperScale(), SmallScale()} {
		for name, spec := range Figures(sc) {
			if err := spec.Normalize(); err != nil {
				t.Fatalf("figure %s: %v", name, err)
			}
			for _, a := range spec.Algs {
				for _, load := range spec.Loads {
					roundTrip(t, spec.PointKey(a.Label, load, 1), 1)
				}
			}
		}
	}
}

// TestFigureKeysArePinned hashes every point key of every figure at both
// scales against the digest of the keys as they were before curves carried a
// recovery mode and specs a throttle, reception channels and a hot-spot
// fraction. A changed key reseeds its point (engine.SeedFor hashes it) and
// orphans its stored result, silently; round trips alone would not notice.
// If a change to the encoding is deliberate, the committed results/fig*.csv
// move with it, and this digest is regenerated with them.
func TestFigureKeysArePinned(t *testing.T) {
	const want = "639a431a65ce2392b1a715bf166f767822636e873fa6ef8809a2590afe82bd21"
	h, n := sha256.New(), 0
	for _, sc := range []Scale{PaperScale(), SmallScale()} {
		figs := Figures(sc)
		for _, name := range FigureNames() {
			spec := figs[name]
			if err := spec.Normalize(); err != nil {
				t.Fatalf("figure %s: %v", name, err)
			}
			for _, a := range spec.Algs {
				for _, load := range spec.Loads {
					fmt.Fprintln(h, spec.PointKey(a.Label, load, 0))
					n++
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want || n != 434 {
		t.Errorf("%d figure point keys hash to %s, want 434 keys hashing to %s", n, got, want)
	}
}

// FuzzParsePointKey feeds ParsePointKey hostile keys: it never panics, and a
// key it accepts re-encodes to itself byte for byte. The seeds are real keys
// (a tiny point, one of every figure, one with a chaos schedule), the key of
// the previous encoding, and keys one edit away from canonical.
func FuzzParsePointKey(f *testing.F) {
	s := keyedPoint(f)
	key := s.PointKey(s.Algs[0].Label, s.Loads[0], 0)
	f.Add(key)
	f.Add(strings.Replace(key, `"Batches":5`, `"Batches":0`, 1))
	f.Add(strings.Replace(key, `"Name"`, `"name"`, 1))
	f.Add(strings.Replace(key, `}#0`, `,"Extra":1}#0`, 1))
	f.Add(strings.TrimSuffix(key, "0") + "+0")
	f.Add("tiny|seed=2a|w=300|m=800|msg=8|vc=4|bd=2/disha-m0@0.2000#0")
	f.Add("")
	s.Chaos = []network.ReconfigEvent{{Cycle: 10, Kind: network.ReconfigSwapAlgorithm, Alg: "duato"}}
	f.Add(s.PointKey(s.Algs[0].Label, s.Loads[0], 2))
	for _, spec := range Figures(SmallScale()) {
		if err := spec.Normalize(); err != nil {
			f.Fatal(err)
		}
		f.Add(spec.PointKey(spec.Algs[len(spec.Algs)-1].Label, spec.Loads[0], 0))
	}
	f.Fuzz(func(t *testing.T, key string) {
		s, rep, err := ParsePointKey(key)
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("multi-line refusal: %v", err)
			}
			return
		}
		if again := s.PointKey(s.Algs[0].Label, s.Loads[0], rep); again != key {
			t.Fatalf("accepted %q, which re-encodes as %q", key, again)
		}
	})
}

// BenchmarkParsePointKey measures what a fleet worker does with a leased key
// before it simulates: decode, normalize (which resolves the topology name)
// and re-encode. On the dragonfly the topology comes from the process's
// table cache after the first key.
func BenchmarkParsePointKey(b *testing.B) {
	s := tinySpec()
	s.Topology, s.Algs, s.Loads = "dragonfly-8x4", s.Algs[:1], s.Loads[:1]
	if err := s.Normalize(); err != nil {
		b.Fatal(err)
	}
	key := s.PointKey(s.Algs[0].Label, s.Loads[0], 0)
	b.Run("dragonfly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ParsePointKey(key); err != nil {
				b.Fatal(err)
			}
		}
	})
}
