// Command disha-cost evaluates Chien's router cost model (the paper's
// Section 3.4): the data-through cycle time of a Disha router versus the
// *-Channels deadlock-avoidance router, for the paper's configuration or a
// custom one.
//
// Examples:
//
//	disha-cost               # the paper's table: 2D mesh, 3 VCs
//	disha-cost -degree 6 -vcs 4 -sweep 8
package main

import (
	"flag"
	"fmt"
	"os"

	disha "repro"
	"repro/internal/telemetry"
)

func main() {
	var (
		degree  = flag.Int("degree", 4, "network ports per router (2n for a k-ary n-cube)")
		vcs     = flag.Int("vcs", 3, "virtual channels per physical channel")
		sweep   = flag.Int("sweep", 0, "additionally sweep VCs from 1 to this count")
		version = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}

	// The cost model panics on a router without ports or channels; a flag
	// value is input, so it is refused here with one line instead.
	if *degree < 1 || *vcs < 1 || *sweep < 0 {
		fmt.Fprintf(os.Stderr, "disha-cost: -degree %d, -vcs %d, -sweep %d: want -degree >= 1, -vcs >= 1, -sweep >= 0\n", *degree, *vcs, *sweep)
		os.Exit(2)
	}

	fmt.Println("Chien cost model, 0.8 micron CMOS (paper Section 3.4)")
	fmt.Println()
	rows := disha.CompareRouterCost(
		disha.StarChannelsRouterCost(*degree, *vcs),
		disha.DishaRouterCost(*degree, *vcs),
	)
	fmt.Print(disha.FormatCostTable(rows))
	fmt.Printf("\nDisha data-through penalty: %+.1f%% for full adaptivity on every VC\n",
		100*(rows[1].Total-rows[0].Total)/rows[0].Total)

	if *sweep > 0 {
		fmt.Println("\nVC sweep:")
		var routers []disha.CostComparison
		for v := 1; v <= *sweep; v++ {
			routers = append(routers, disha.CompareRouterCost(
				disha.StarChannelsRouterCost(*degree, v),
				disha.DishaRouterCost(*degree, v),
			)...)
		}
		fmt.Print(disha.FormatCostTable(routers))
	}
}
