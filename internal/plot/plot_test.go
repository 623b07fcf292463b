package plot

import (
	"strings"
	"testing"
)

// demoCurves returns two latency-vs-load curves.
func demoCurves() []Curve {
	a, b := Curve{Label: "disha-m0"}, Curve{Label: "duato"}
	for i := 1; i <= 8; i++ {
		x := 0.1 * float64(i)
		a.X, a.Y = append(a.X, x), append(a.Y, 40+100*x*x)
		b.X, b.Y = append(b.X, x), append(b.Y, 40+400*x*x)
	}
	return []Curve{a, b}
}

func TestRenderBasics(t *testing.T) {
	s := Render(Config{Title: "demo", Width: 40, Height: 10, XLabel: "load", YLabel: "latency"},
		demoCurves())
	if !strings.Contains(s, "demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(s, "*") || !strings.Contains(s, "o") {
		t.Fatalf("missing curve markers:\n%s", s)
	}
	if !strings.Contains(s, "* disha-m0") || !strings.Contains(s, "o duato") {
		t.Fatalf("missing legend:\n%s", s)
	}
	if !strings.Contains(s, "x: load, y: latency") {
		t.Fatal("missing axis labels")
	}
	lines := strings.Split(s, "\n")
	// Title + height rows + axis + ticks + labels + legend.
	if len(lines) < 10+4 {
		t.Fatalf("unexpectedly short output (%d lines)", len(lines))
	}
}

func TestRenderEmpty(t *testing.T) {
	s := Render(Config{Title: "empty"}, nil)
	if !strings.Contains(s, "no data") {
		t.Fatalf("empty render: %q", s)
	}
}

func TestRenderSinglePoint(t *testing.T) {
	one := Curve{Label: "x", X: []float64{0.5}, Y: []float64{10}}
	s := Render(Config{Width: 20, Height: 5}, []Curve{one})
	if !strings.Contains(s, "*") {
		t.Fatalf("single point missing:\n%s", s)
	}
}

func TestYMaxClipping(t *testing.T) {
	s := Render(Config{Width: 30, Height: 8, YMax: 100, XLabel: "x", YLabel: "y"},
		demoCurves())
	if !strings.Contains(s, "clipped at 100") {
		t.Fatalf("clip note missing:\n%s", s)
	}
	if !strings.Contains(s, "       100 |") {
		t.Fatalf("top axis label should be the clip value:\n%s", s)
	}
}

func TestLogYSkipsNonPositive(t *testing.T) {
	c := Curve{Label: "l", X: []float64{0.1, 0.2, 0.3}, Y: []float64{0, 10, 1000}}
	s := Render(Config{Width: 20, Height: 6, LogY: true, XLabel: "x", YLabel: "y"}, []Curve{c})
	if !strings.Contains(s, "log scale") {
		t.Fatal("log scale note missing")
	}
	if !strings.Contains(s, "1000 |") {
		t.Fatalf("log top label should be raw value:\n%s", s)
	}
}

func TestCollisionsMarked(t *testing.T) {
	a := Curve{Label: "a", X: []float64{0.5, 1}, Y: []float64{10, 20}}
	b := Curve{Label: "b", X: []float64{0.5, 1}, Y: []float64{10, 5}}
	s := Render(Config{Width: 10, Height: 5}, []Curve{a, b})
	if !strings.Contains(s, "?") {
		t.Fatalf("overlapping points should collide:\n%s", s)
	}
}

func TestConvenienceWrappers(t *testing.T) {
	if !strings.Contains(Latency("t", demoCurves()), "log scale") {
		t.Fatal("Latency wrapper must use a log axis")
	}
	if !strings.Contains(Throughput("t", demoCurves()), "accepted") {
		t.Fatal("Throughput wrapper missing axis label")
	}
}
