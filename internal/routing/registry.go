package routing

import (
	"fmt"
	"strconv"
	"strings"
)

// algorithms is the one table of routing algorithm names: every spelling a
// flag or a sweep spec may use. An algorithm's canonical name is what its
// Name() prints (snapshot guards and trace headers record that one); "disha",
// "turn" and "dally" are the short forms the command line has always taught.
// Disha is a family: ByName also reads "disha-m<N>" for any misroute bound
// N >= 0.
var algorithms = []struct {
	name  string
	build func() Algorithm
}{
	{"disha", func() Algorithm { return Disha(0) }},
	{"dor", DOR},
	{"turn", NegativeFirst},
	{"turn-negative-first", NegativeFirst},
	{"dally", DallyAoki},
	{"dally-aoki", DallyAoki},
	{"duato", Duato},
	{"duato-strict", DuatoStrict},
}

var selections = []Selection{Random(), MinCongestion()}

// ByName resolves a routing algorithm from any spelling in Names or from
// "disha-m<N>". Every Algorithm round-trips: ByName(a.Name()).Name() ==
// a.Name().
func ByName(name string) (Algorithm, error) {
	for _, row := range algorithms {
		if row.name == name {
			return row.build(), nil
		}
	}
	if rest, ok := strings.CutPrefix(name, "disha-m"); ok {
		if m, err := strconv.Atoi(rest); err == nil && m >= 0 {
			return Disha(m), nil
		}
	}
	return nil, fmt.Errorf("routing: unknown algorithm %q (want %s or disha-m<N>)", name, strings.Join(Names(), ", "))
}

// Names lists the algorithm spellings the table holds.
func Names() []string {
	out := make([]string, len(algorithms))
	for i, row := range algorithms {
		out[i] = row.name
	}
	return out
}

// SelectionByName resolves a selection function from its Name().
func SelectionByName(name string) (Selection, error) {
	for _, s := range selections {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("routing: unknown selection %q (want %s)", name, strings.Join(SelectionNames(), ", "))
}

// SelectionNames lists the selection functions.
func SelectionNames() []string {
	out := make([]string, len(selections))
	for i, s := range selections {
		out[i] = s.Name()
	}
	return out
}

// NeedsRecovery reports whether a's deadlock freedom comes from recovery
// (the Disha family) rather than from its own channel restrictions: such an
// algorithm wedges unless detection and the Deadlock Buffer are armed.
func NeedsRecovery(a Algorithm) bool {
	_, ok := a.(disha)
	return ok
}
