// Package plot renders experiment curves as ASCII charts so that
// cmd/disha-sweep can show the paper's figures directly in a terminal,
// without any plotting dependency.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Curve is one labelled line of a chart: Y[i] is plotted at X[i], and X and
// Y have the same length.
type Curve struct {
	Label string
	X, Y  []float64
}

// Config controls chart geometry and scaling.
type Config struct {
	// Width and Height are the plot area in characters (excluding axes).
	Width, Height int
	// Title is printed above the chart.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// YMax clips the y axis (0 = auto). Latency curves explode past
	// saturation; clipping keeps the pre-saturation region readable.
	YMax float64
	// LogY plots log10(y) (useful for latency blow-ups).
	LogY bool
}

// markers label up to ten curves.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '=', '~'}

// Render draws the curves as a scatter chart with a shared x/y scale and a
// legend mapping markers to labels.
func Render(cfg Config, curves []Curve) string {
	if cfg.Width <= 0 {
		cfg.Width = 60
	}
	if cfg.Height <= 0 {
		cfg.Height = 20
	}

	// Collect bounds.
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := 0.0, math.Inf(-1)
	type pt struct {
		x, y float64
		m    byte
	}
	var pts []pt
	for ci, c := range curves {
		m := markers[ci%len(markers)]
		for i, x := range c.X {
			y := c.Y[i]
			if cfg.YMax > 0 && y > cfg.YMax {
				y = cfg.YMax
			}
			if cfg.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			pts = append(pts, pt{x, y, m})
			xMin = math.Min(xMin, x)
			xMax = math.Max(xMax, x)
			yMax = math.Max(yMax, y)
		}
	}
	if len(pts) == 0 {
		return cfg.Title + "\n(no data)\n"
	}
	if cfg.LogY {
		yMin = math.Inf(1)
		for _, p := range pts {
			yMin = math.Min(yMin, p.y)
		}
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}

	grid := make([][]byte, cfg.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cfg.Width))
	}
	for _, p := range pts {
		col := int((p.x - xMin) / (xMax - xMin) * float64(cfg.Width-1))
		row := int((p.y - yMin) / (yMax - yMin) * float64(cfg.Height-1))
		row = cfg.Height - 1 - row // origin bottom-left
		if grid[row][col] == ' ' {
			grid[row][col] = p.m
		} else if grid[row][col] != p.m {
			grid[row][col] = '?' // collision between curves
		}
	}

	var sb strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&sb, "%s\n", cfg.Title)
	}
	yTop, yBot := yMax, yMin
	if cfg.LogY {
		yTop, yBot = math.Pow(10, yMax), math.Pow(10, yMin)
	}
	for r, line := range grid {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%10.4g", yTop)
		case cfg.Height - 1:
			label = fmt.Sprintf("%10.4g", yBot)
		case cfg.Height / 2:
			mid := (yMax + yMin) / 2
			if cfg.LogY {
				mid = math.Pow(10, mid)
			}
			label = fmt.Sprintf("%10.4g", mid)
		}
		fmt.Fprintf(&sb, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(&sb, "%10s +%s\n", "", strings.Repeat("-", cfg.Width))
	fmt.Fprintf(&sb, "%10s  %-*.4g%*.4g\n", "", cfg.Width/2, xMin, cfg.Width-cfg.Width/2, xMax)
	if cfg.XLabel != "" || cfg.YLabel != "" {
		fmt.Fprintf(&sb, "%10s  x: %s, y: %s", "", cfg.XLabel, cfg.YLabel)
		if cfg.LogY {
			sb.WriteString(" (log scale)")
		}
		if cfg.YMax > 0 {
			fmt.Fprintf(&sb, " (clipped at %.4g)", cfg.YMax)
		}
		sb.WriteString("\n")
	}
	// Legend, in curve order.
	var legend []string
	for ci, c := range curves {
		legend = append(legend, fmt.Sprintf("%c %s", markers[ci%len(markers)], c.Label))
	}
	fmt.Fprintf(&sb, "%10s  %s\n", "", strings.Join(legend, "   "))
	return sb.String()
}

// Latency renders latency-vs-load curves on a log y axis.
func Latency(title string, curves []Curve) string {
	return Render(Config{
		Title: title, XLabel: "offered load (fraction of capacity)", YLabel: "mean latency (cycles)",
		LogY: true,
	}, curves)
}

// Throughput renders throughput-vs-load curves.
func Throughput(title string, curves []Curve) string {
	return Render(Config{
		Title: title, XLabel: "offered load (fraction of capacity)", YLabel: "accepted (fraction of capacity)",
	}, curves)
}
