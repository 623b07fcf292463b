package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs: the
// smallest value with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", lowest first.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest candidate percentile that still has
// at least ten of n samples beyond it, or 0 when even the median does not
// (n < 20). A p90 over 120 jobs has 12 samples beyond it; a p95 only 6.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		// The epsilon absorbs the rounding of 1-p/100 (n=100, p=90 is
		// exactly ten beyond, but evaluates to 9.999...).
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// pool concatenates per-seed sample lists into one sample, seed order kept.
// Block rates are pooled before a percentile is taken, so each seed weighs in
// by the blocks it ran rather than as one value.
func pool(perSeed [][]float64) []float64 { return slices.Concat(perSeed...) }

// latencyHist counts packet latencies by whole simulated cycle, which keeps
// mean and percentiles exact in constant memory however long the run is.
type latencyHist struct {
	counts []int64
	n, sum int64
}

func (h *latencyHist) add(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	for int64(len(h.counts)) <= cycles {
		h.counts = append(h.counts, make([]int64, len(h.counts)+64)...)
	}
	h.counts[cycles]++
	h.n++
	h.sum += cycles
}

func (h *latencyHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// percentile is the nearest-rank percentile over the counted latencies.
func (h *latencyHist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	var seen int64
	for c, k := range h.counts {
		seen += k
		if seen >= rank {
			return float64(c)
		}
	}
	return float64(len(h.counts) - 1)
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its direct children cover. Children may
// overlap each other (parallel work) and are clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		edge := s.StartNS // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}
