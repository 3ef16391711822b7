package bgp_test

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/lab"
	"repro/internal/sim"
)

// TestNoHoldDownOutlastsConvergence pins why the quiescence window is
// the MRAI's (monitor.Window): once a wait for convergence returns, no
// session of any router may still be inside its MRAI hold-down. A
// hold-down is a timestamp with no event behind it, so a shorter window
// would let the next trigger meet sessions that may not send yet, and
// its measurement would start from a network still pacing the last
// one. Checked after the warm-up and after a withdrawal, on a clique, a
// ring and two internet-like graphs, under both policies, at the
// default timers (MRAI 30 s, jittered) with a 25 ms processing delay.
func TestNoHoldDownOutlastsConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("40 trials at the default MRAI")
	}
	held := func(e *experiment.Experiment) (n int) {
		now := sim.TimeToNS(e.K.Now())
		for _, asn := range e.ASNs() {
			if r, ok := e.Routers[asn]; ok {
				for _, p := range r.Sessions() {
					if bgp.NextAdv(p) > now {
						n++
					}
				}
			}
		}
		return n
	}
	for _, topo := range []string{"clique 16", "internet 64", "internet 160", "ring 12"} {
		for _, policy := range []string{"permit-all", "gao-rexford"} {
			t.Run(topo+"/"+policy, func(t *testing.T) {
				t.Parallel()
				spec, err := lab.ParseTopoString(topo)
				if err != nil {
					t.Fatal(err)
				}
				pol, err := lab.ParsePolicy(policy)
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= 5; seed++ {
					e, err := lab.Trial{Topo: spec, Policy: pol, ProcessingDelay: 25 * time.Millisecond, Seed: seed, TopoSeed: seed}.Warmup()
					if err != nil {
						t.Fatal(err)
					}
					if n := held(e); n > 0 {
						t.Errorf("seed %d after the warm-up: %d sessions still held at %v", seed, n, e.K.Elapsed())
					}
					if err := e.Withdraw(1); err != nil {
						t.Fatal(err)
					}
					if _, err := e.WaitConverged(24 * time.Hour); err != nil {
						t.Fatal(err)
					}
					if n := held(e); n > 0 {
						t.Errorf("seed %d after withdrawing AS1: %d sessions still held at %v", seed, n, e.K.Elapsed())
					}
				}
			})
		}
	}
}
