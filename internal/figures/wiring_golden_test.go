package figures_test

import (
	"bytes"
	"testing"

	"repro/internal/figures"
	"repro/internal/lab"
)

// TestWiringGolden pins the full `convergence -format json` bytes of
// sweeps that take every link through every role transition
// (router–router, switch–router, switch–switch, in both directions,
// with the link up and down at the moment of migration) and through
// controller crash/recovery. The goldens were generated at the commit
// before experiment's three link-wiring sites became one wire(a, b),
// so they are the proof that the order of every call that consumes a
// kernel sequence number (TransportDown, the debounce arm behind
// SetPortMembership, the session TransportUp behind AddExternalPeering)
// is unchanged.
func TestWiringGolden(t *testing.T) {
	for _, c := range []struct {
		name, exp string
		ov        figures.Overrides
	}{
		{"wiring_internet24", "fig2", figures.Overrides{
			Topology: "internet 24", Policy: "gao-rexford", SDNCounts: []int{6, 12}, Runs: 2, Seed: 1, MRAI: "5s",
			Workload: "at 0s migrate 3; at 1m linkdown 3 4; at 2m session-reset 1 2; at 3m linkup 3 4; at 4m migrate 3; " +
				"at 5m withdraw; at 8m announce; at 9m ctrl-down; at 12m ctrl-up; " +
				"at 15m migrate 20; at 16m migrate 21; at 17m migrate 20",
		}},
		{"wiring_grid44", "fig2", figures.Overrides{
			Topology: "grid 4 4", Placement: "degree", SDNCounts: []int{4, 8}, Runs: 2, Seed: 1, MRAI: "5s",
			Workload: "at 0s migrate 6; at 1m linkdown 6 7; at 2m migrate 7; at 3m linkup 6 7; at 4m migrate 6; " +
				"at 5m withdraw; at 6m migrate 7",
		}},
		{"wiring_ctrlfail", "ctrlfail", figures.Overrides{Seed: 1}},
		{"wiring_ctrlfail_clique6", "ctrlfail", figures.Overrides{Topology: "clique 6", SDNCounts: []int{0, 3, 6}, Seed: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sweep, err := figures.Resolve(c.exp, c.ov)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sweep.Run()
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := lab.Write(&got, lab.FormatJSON, res); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name+".golden", got.Bytes(), "a deliberate change of emulated behaviour")
		})
	}
}
