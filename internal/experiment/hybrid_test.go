package experiment

import (
	mrand "math/rand"
	"testing"
	"time"

	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestGaoRexfordHybrid(t *testing.T) {
	// Provider hierarchy: AS1 provides AS2 and AS3; AS2 provides AS4;
	// AS3 provides AS5; AS2-AS3 peer. The cluster takes over AS2 and
	// AS4 (a provider and its customer).
	g := topology.New()
	for _, e := range []topology.Edge{
		{A: 1, B: 2, Rel: topology.P2C},
		{A: 1, B: 3, Rel: topology.P2C},
		{A: 2, B: 4, Rel: topology.P2C},
		{A: 3, B: 5, Rel: topology.P2C},
		{A: 2, B: 3, Rel: topology.P2P},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	e := build(t, Config{
		Seed: 8, Graph: g, Timers: fastTimers(),
		SDNMembers: []idr.ASN{2, 4},
		Policy:     policy.GaoRexford{},
		Debounce:   200 * time.Millisecond,
	})
	announceAllAndSettle(t, e)
	// The stub customer AS5 must reach the cluster prefixes and vice
	// versa (up through AS3, across the top, down into the cluster).
	if !e.Reachable(5, 4) {
		t.Fatal("AS5 cannot reach cluster customer AS4")
	}
	if !e.Reachable(5, 2) {
		t.Fatal("AS5 cannot reach cluster member AS2")
	}
	// Everyone reaches everyone in a pure hierarchy (no valleys needed).
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			if !e.Reachable(from, to) {
				t.Fatalf("%v cannot reach %v", from, to)
			}
		}
	}
	// Valley-freeness at the legacy ASes: AS3's path to AS4 must go up
	// through its provider AS1 or across its peer AS2 — never through
	// a customer.
	path, _ := e.BestPath(3, 4)
	if first, ok := path.First(); !ok || (first != 1 && first != 2) {
		t.Fatalf("AS3's path to AS4 = %v (first hop must be provider or peer)", path)
	}
}

func TestMultiplePrefixesIndependent(t *testing.T) {
	// Withdrawal of one prefix must not disturb routing for others.
	g := mustGraph(topology.Clique(5))
	e := build(t, Config{Seed: 9, Graph: g, Timers: fastTimers(),
		SDNMembers: []idr.ASN{4, 5}, Debounce: 200 * time.Millisecond})
	announceAllAndSettle(t, e)
	before := make(map[idr.ASN]string)
	for _, asn := range e.ASNs() {
		if asn == 2 {
			continue
		}
		p, ok := e.BestPath(asn, 2)
		if !ok {
			t.Fatalf("%v missing route to AS2", asn)
		}
		before[asn] = p.String()
	}
	if _, err := e.MeasureConvergence(func() error { return e.Withdraw(1) }, time.Hour); err != nil {
		t.Fatal(err)
	}
	for asn, want := range before {
		p, ok := e.BestPath(asn, 2)
		if !ok || p.String() != want {
			t.Fatalf("%v's route to AS2 changed after unrelated withdrawal: %v (was %s)", asn, p, want)
		}
	}
}

func TestInternetLikeHybridReachability(t *testing.T) {
	// A synthesized CAIDA-style topology with the tier-1 core under
	// the controller and Gao-Rexford policies everywhere.
	e := buildInternetLike(t, 20, []idr.ASN{1, 2, 3})
	announceAllAndSettle(t, e)
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			if !e.Reachable(from, to) {
				t.Fatalf("%v cannot reach %v", from, to)
			}
		}
	}
}

func buildInternetLike(t *testing.T, n int, members []idr.ASN) *Experiment {
	t.Helper()
	k := newSeededRand(77)
	g, err := topology.SynthesizeInternetLike(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return build(t, Config{
		Seed: 77, Graph: g, Timers: fastTimers(),
		SDNMembers: members,
		Policy:     policy.GaoRexford{},
		Debounce:   200 * time.Millisecond,
	})
}

func TestBlackoutShorterWithCluster(t *testing.T) {
	// The demo scenario (examples/video-loss) as a regression test: a
	// mid-path link failure after bystander churn blackholes traffic
	// for an MRAI round under pure BGP, but only for about a debounce
	// window when the mid-path ASes are cluster switches.
	measure := func(members []idr.ASN) float64 {
		g := mustGraph(topology.Ring(6))
		timers := fastTimers()
		timers.MRAI = 5 * time.Second
		timers.MRAIJitter = false
		e := build(t, Config{
			Seed: 7, Graph: g, Timers: timers,
			SDNMembers: members, Debounce: 200 * time.Millisecond,
		})
		announceAllAndSettle(t, e)
		before := e.Probes.TotalLoss()
		var stream sim.Timer
		stream = e.K.AfterFunc(50*time.Millisecond, func() {
			_ = e.InjectProbe(1, 4)
			stream.Reset(50 * time.Millisecond)
		})
		if err := e.RunFor(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := e.Withdraw(5); err != nil { // consume the MRAI slots
			t.Fatal(err)
		}
		if err := e.RunFor(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := e.FailLink(3, 4); err != nil {
			t.Fatal(err)
		}
		if err := e.RunFor(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		stream.Stop()
		if err := e.RunFor(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		after := e.Probes.TotalLoss()
		return monitor.ProbeStats{Sent: after.Sent - before.Sent, Delivered: after.Delivered - before.Delivered}.Loss()
	}
	pure := measure(nil)
	hybrid := measure([]idr.ASN{2, 3})
	t.Logf("probe loss: pure=%.1f%% hybrid=%.1f%%", 100*pure, 100*hybrid)
	if hybrid >= pure {
		t.Fatalf("cluster should shorten the blackout: pure=%.3f hybrid=%.3f", pure, hybrid)
	}
	if pure < 0.02 {
		t.Fatalf("pure BGP blackout suspiciously short: %.3f", pure)
	}
}

func TestProbeLossDuringBlackhole(t *testing.T) {
	// Probes sent while a prefix is withdrawn are lost, not queued.
	g := mustGraph(topology.Line(3))
	e := build(t, Config{Seed: 10, Graph: g, Timers: fastTimers()})
	announceAllAndSettle(t, e)
	if _, err := e.MeasureConvergence(func() error { return e.Withdraw(3) }, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectProbe(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	stats := e.Probes.TotalLoss()
	if stats.Sent != 1 || stats.Delivered != 0 {
		t.Fatalf("stats = %+v, want 1 sent 0 delivered", stats)
	}
}

func TestReAnnounceAfterWithdraw(t *testing.T) {
	g := mustGraph(topology.Clique(4))
	e := build(t, Config{Seed: 11, Graph: g, Timers: fastTimers(),
		SDNMembers: []idr.ASN{4}, Debounce: 200 * time.Millisecond})
	announceAllAndSettle(t, e)
	for cycle := 0; cycle < 3; cycle++ {
		if _, err := e.MeasureConvergence(func() error { return e.Withdraw(1) }, time.Hour); err != nil {
			t.Fatalf("cycle %d withdraw: %v", cycle, err)
		}
		if e.Reachable(3, 1) || e.Reachable(4, 1) {
			t.Fatalf("cycle %d: prefix still reachable after withdrawal", cycle)
		}
		if _, err := e.MeasureConvergence(func() error { return e.Announce(1) }, time.Hour); err != nil {
			t.Fatalf("cycle %d announce: %v", cycle, err)
		}
		if !e.Reachable(3, 1) || !e.Reachable(4, 1) {
			t.Fatalf("cycle %d: prefix unreachable after re-announcement", cycle)
		}
	}
}

// newSeededRand returns a deterministic rand for topology synthesis.
func newSeededRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
