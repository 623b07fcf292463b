package telemetry

import (
	"slices"
	"strings"
	"testing"
)

func TestRingEviction(t *testing.T) {
	r := newRing[int](3)
	for i := 0; i < 5; i++ {
		r.push(i)
	}
	if got := r.items(); !slices.Equal(got, []int{2, 3, 4}) {
		t.Fatalf("retained %v, want [2 3 4] (the newest three, oldest-first)", got)
	}
}

func TestRingTinyCapacityClamped(t *testing.T) {
	r := newRing[int](0)
	r.push(1)
	r.push(2)
	if got := r.items(); !slices.Equal(got, []int{2}) {
		t.Fatalf("clamped ring holds %v, want [2]", got)
	}
}

func TestKindStrings(t *testing.T) {
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must format")
	}
	for k := Inject; k <= Drop; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Fatalf("kind %d missing name", k)
		}
	}
	if got := KindStrings(); len(got) != int(Drop)+1 || got[TokenCapture] != "token-capture" {
		t.Fatalf("KindStrings() = %v", got)
	}
}
