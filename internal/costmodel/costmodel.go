// Package costmodel implements Chien's router cost and speed model as used
// in the paper's Section 3.4 to compare Disha's hardware cost against the
// *-Channels router. For a 0.8 micron CMOS process the module delays are
//
//	T_fc  = 2.2 ns                    (flow controller)
//	T_cb  = 0.4 + 0.6 log2(P) ns      (crossbar with P inputs)
//	T_vcc = 1.24 + 0.6 log2(V) ns     (virtual channel controller, V VCs)
//
// and the data-through cycle time is their sum. The crossbar input count P
// for a wormhole router is one input per virtual channel per network port
// plus one injection input; Disha adds exactly one more input for the
// central Deadlock Buffer while leaving the VCC untouched, which yields the
// paper's 7.0 ns vs 7.1 ns comparison (a ~1.4% data-through penalty bought
// with full routing adaptivity on every VC).
package costmodel

import (
	"fmt"
	"math"
)

// Process-calibrated constants from Chien's model (0.8 micron CMOS).
const (
	FlowControllerDelayNS = 2.2
	crossbarBaseNS        = 0.4
	crossbarPerLog2NS     = 0.6
	vccBaseNS             = 1.24
	vccPerLog2NS          = 0.6
)

// CrossbarDelayNS returns the crossbar traversal delay for a crossbar with
// the given number of inputs.
func CrossbarDelayNS(inputs int) float64 {
	if inputs < 1 {
		panic("costmodel: crossbar needs at least one input")
	}
	return crossbarBaseNS + float64(crossbarPerLog2NS*math.Log2(float64(inputs)))
}

// VCCDelayNS returns the virtual channel controller delay for multiplexing
// vcs virtual channels onto one physical channel.
func VCCDelayNS(vcs int) float64 {
	if vcs < 1 {
		panic("costmodel: need at least one virtual channel")
	}
	return vccBaseNS + float64(vccPerLog2NS*math.Log2(float64(vcs)))
}

// Router describes the structural parameters that determine data-through
// delay.
type Router struct {
	// Name labels the design in reports.
	Name string
	// Degree is the number of network ports (2n for a k-ary n-cube).
	Degree int
	// VCs is the number of virtual channels per physical channel.
	VCs int
	// InjectionInputs is the number of injection channels (1 in the paper).
	InjectionInputs int
	// DeadlockBufferInputs is 1 for a Disha router (the central Deadlock
	// Buffer is one extra crossbar input), 0 otherwise.
	DeadlockBufferInputs int
}

// CrossbarInputs returns P: one crossbar input per VC per network port,
// plus injection and Deadlock Buffer inputs.
func (r Router) CrossbarInputs() int {
	return r.Degree*r.VCs + r.InjectionInputs + r.DeadlockBufferInputs
}

// DataThroughNS returns the router's data-through cycle time
// T_fc + T_cb + T_vcc in nanoseconds.
func (r Router) DataThroughNS() float64 {
	return FlowControllerDelayNS + CrossbarDelayNS(r.CrossbarInputs()) + VCCDelayNS(r.VCs)
}

// StarChannels returns the paper's reference design: the *-Channels router
// (deadlock avoidance per Duato's theory) on a 2D mesh with the given VCs.
func StarChannels(degree, vcs int) Router {
	return Router{Name: "*-channels", Degree: degree, VCs: vcs, InjectionInputs: 1}
}

// Disha returns a Disha router with the same link configuration plus the
// central Deadlock Buffer input.
func Disha(degree, vcs int) Router {
	return Router{Name: "disha", Degree: degree, VCs: vcs, InjectionInputs: 1, DeadlockBufferInputs: 1}
}

// Comparison is one row of the Section 3.4 cost table.
type Comparison struct {
	Router                Router
	CrossbarIn            int
	Tfc, Tcb, Tvcc, Total float64
}

// Compare evaluates a set of routers under the model.
func Compare(routers ...Router) []Comparison {
	out := make([]Comparison, 0, len(routers))
	for _, r := range routers {
		out = append(out, Comparison{
			Router:     r,
			CrossbarIn: r.CrossbarInputs(),
			Tfc:        FlowControllerDelayNS,
			Tcb:        CrossbarDelayNS(r.CrossbarInputs()),
			Tvcc:       VCCDelayNS(r.VCs),
			Total:      r.DataThroughNS(),
		})
	}
	return out
}

// PaperTable reproduces the Section 3.4 comparison: a 2D mesh with three
// virtual channels per physical channel, *-Channels vs Disha.
func PaperTable() []Comparison {
	return Compare(StarChannels(4, 3), Disha(4, 3))
}

// FormatTable renders comparisons as an aligned text table.
func FormatTable(rows []Comparison) string {
	s := fmt.Sprintf("%-12s %8s %8s %8s %8s %10s\n", "router", "xbar-in", "T_fc", "T_cb", "T_vcc", "T_through")
	for _, c := range rows {
		s += fmt.Sprintf("%-12s %8d %8.2f %8.2f %8.2f %8.2f ns\n",
			c.Router.Name, c.CrossbarIn, c.Tfc, c.Tcb, c.Tvcc, c.Total)
	}
	return s
}
