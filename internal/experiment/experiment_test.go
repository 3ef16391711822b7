package experiment

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/topology"
)

// fastTimers keeps protocol dynamics but scales MRAI down so tests
// explore quickly.
func fastTimers() bgp.Timers {
	return bgp.Timers{
		HoldTime:   90 * time.Second,
		MRAI:       2 * time.Second,
		MRAIJitter: false,
	}
}

func build(t *testing.T, cfg Config) *Experiment {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitEstablished(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustGraph(g *topology.Graph, err error) *topology.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func announceAllAndSettle(t *testing.T, e *Experiment) {
	t.Helper()
	for _, asn := range e.ASNs() {
		if err := e.Announce(asn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestPureBGPLineReachability(t *testing.T) {
	g := mustGraph(topology.Line(4))
	e := build(t, Config{Seed: 1, Graph: g, Timers: fastTimers()})
	announceAllAndSettle(t, e)
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			if !e.Reachable(from, to) {
				t.Fatalf("%v cannot reach %v", from, to)
			}
		}
	}
	// Path from AS1 to AS4 is the line [2 3 4].
	path, ok := e.BestPath(1, 4)
	if !ok || path.String() != "2 3 4" {
		t.Fatalf("path 1->4 = %v", path)
	}
}

func TestPureBGPProbesDeliver(t *testing.T) {
	g := mustGraph(topology.Line(3))
	e := build(t, Config{Seed: 1, Graph: g, Timers: fastTimers()})
	announceAllAndSettle(t, e)
	for i := 0; i < 5; i++ {
		if err := e.InjectProbe(1, 3); err != nil {
			t.Fatal(err)
		}
		if err := e.InjectProbe(3, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	total := e.Probes.TotalLoss()
	if total.Sent != 10 || total.Delivered != 10 {
		t.Fatalf("probes: %+v", total)
	}
}

func TestPureBGPWithdrawalConverges(t *testing.T) {
	g := mustGraph(topology.Clique(6))
	e := build(t, Config{Seed: 2, Graph: g, Timers: fastTimers()})
	announceAllAndSettle(t, e)
	d, err := e.MeasureConvergence(func() error { return e.Withdraw(1) }, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("convergence time = %v, want > 0", d)
	}
	// Nobody should still have a route to AS1's prefix.
	for _, asn := range e.ASNs() {
		if asn == 1 {
			continue
		}
		if e.Reachable(asn, 1) {
			t.Fatalf("%v still has a route to withdrawn prefix", asn)
		}
	}
}

func TestHybridClusterReachability(t *testing.T) {
	// Line 1-2-3-4 with 2,3 as SDN members: legacy ASes 1 and 4 talk
	// across the cluster; the cluster originates its own prefixes.
	g := mustGraph(topology.Line(4))
	e := build(t, Config{
		Seed: 3, Graph: g, Timers: fastTimers(),
		SDNMembers: []idr.ASN{2, 3},
		Debounce:   200 * time.Millisecond,
	})
	announceAllAndSettle(t, e)

	// Legacy -> legacy across the cluster keeps full AS transparency.
	path, ok := e.BestPath(1, 4)
	if !ok {
		t.Fatal("1 cannot reach 4")
	}
	if path.String() != "2 3 4" {
		t.Fatalf("path 1->4 = %q, want \"2 3 4\" (cluster transparent)", path.String())
	}
	// Legacy -> member.
	if !e.Reachable(1, 3) || !e.Reachable(4, 2) {
		t.Fatal("legacy cannot reach cluster prefixes")
	}
	// Member -> legacy (controller-computed path).
	path, ok = e.BestPath(2, 4)
	if !ok || path.String() != "3 4" {
		t.Fatalf("path 2->4 = %v", path)
	}
	// Member -> member.
	if !e.Reachable(2, 3) {
		t.Fatal("intra-cluster prefix unreachable")
	}
	if !e.IsSDNMember(2) || e.IsSDNMember(1) {
		t.Fatal("IsSDNMember wrong")
	}
}

func TestHybridProbesTraverseCluster(t *testing.T) {
	g := mustGraph(topology.Line(4))
	e := build(t, Config{
		Seed: 4, Graph: g, Timers: fastTimers(),
		SDNMembers: []idr.ASN{2, 3},
		Debounce:   200 * time.Millisecond,
	})
	announceAllAndSettle(t, e)
	pairs := [][2]idr.ASN{{1, 4}, {4, 1}, {1, 3}, {2, 4}, {2, 3}}
	for _, p := range pairs {
		if err := e.InjectProbe(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	total := e.Probes.TotalLoss()
	if total.Delivered != uint64(len(pairs)) {
		t.Fatalf("probes: %+v (want %d delivered)", total, len(pairs))
	}
}

func TestHybridWithdrawalCleansUp(t *testing.T) {
	g := mustGraph(topology.Line(4))
	e := build(t, Config{
		Seed: 5, Graph: g, Timers: fastTimers(),
		SDNMembers: []idr.ASN{2, 3},
		Debounce:   200 * time.Millisecond,
	})
	announceAllAndSettle(t, e)
	// Withdraw the legacy prefix of AS4: everyone, including cluster
	// members, must lose it.
	if _, err := e.MeasureConvergence(func() error { return e.Withdraw(4) }, time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, asn := range []idr.ASN{1, 2, 3} {
		if e.Reachable(asn, 4) {
			t.Fatalf("%v still reaches withdrawn AS4 prefix", asn)
		}
	}
	// Withdraw a cluster-originated prefix: legacy must lose it.
	if _, err := e.MeasureConvergence(func() error { return e.Withdraw(2) }, time.Hour); err != nil {
		t.Fatal(err)
	}
	if e.Reachable(1, 2) || e.Reachable(4, 2) {
		t.Fatal("legacy still reaches withdrawn cluster prefix")
	}
}

func TestLinkFailureFailover(t *testing.T) {
	// Ring of 4: fail one link, traffic reroutes the long way.
	g := mustGraph(topology.Ring(4))
	e := build(t, Config{Seed: 6, Graph: g, Timers: fastTimers()})
	announceAllAndSettle(t, e)
	path, _ := e.BestPath(1, 2)
	if path.String() != "2" {
		t.Fatalf("pre-failure path 1->2 = %v", path)
	}
	d, err := e.MeasureConvergence(func() error { return e.FailLink(1, 2) }, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Fatal("negative convergence time")
	}
	path, ok := e.BestPath(1, 2)
	if !ok {
		t.Fatal("1 lost AS2 entirely after single link failure")
	}
	if path.String() != "4 3 2" {
		t.Fatalf("post-failure path 1->2 = %v, want the long way", path)
	}
	// Restore: the direct path returns.
	if _, err := e.MeasureConvergence(func() error { return e.RestoreLink(1, 2) }, time.Hour); err != nil {
		t.Fatal(err)
	}
	path, _ = e.BestPath(1, 2)
	if path.String() != "2" {
		t.Fatalf("post-restore path 1->2 = %v", path)
	}
	if up, exists := e.Link(1, 2); !exists || !up {
		t.Fatal("Link accessor wrong")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		g := mustGraph(topology.Clique(5))
		timers := fastTimers()
		timers.MRAIJitter = true
		e := build(t, Config{Seed: 42, Graph: g, Timers: timers})
		announceAllAndSettle(t, e)
		d, err := e.MeasureConvergence(func() error { return e.Withdraw(1) }, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestSDNReducesWithdrawalConvergence(t *testing.T) {
	// The paper's headline claim in miniature: on a clique, withdrawal
	// convergence with half the ASes under the controller is faster
	// than pure BGP.
	measure := func(members []idr.ASN) time.Duration {
		g := mustGraph(topology.Clique(8))
		timers := fastTimers()
		timers.MRAI = 5 * time.Second
		e := build(t, Config{
			Seed: 11, Graph: g, Timers: timers,
			SDNMembers: members,
			Debounce:   500 * time.Millisecond,
		})
		announceAllAndSettle(t, e)
		d, err := e.MeasureConvergence(func() error { return e.Withdraw(1) }, 2*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	pure := measure(nil)
	hybrid := measure([]idr.ASN{5, 6, 7, 8})
	t.Logf("withdrawal convergence: pure=%v hybrid(4/8 SDN)=%v", pure, hybrid)
	if hybrid >= pure {
		t.Fatalf("SDN deployment did not reduce convergence: pure=%v hybrid=%v", pure, hybrid)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing graph should error")
	}
	g := topology.New()
	g.AddNode(1)
	g.AddNode(2) // disconnected
	if _, err := New(Config{Graph: g}); err == nil {
		t.Fatal("disconnected graph should error")
	}
	line := mustGraph(topology.Line(2))
	if _, err := New(Config{Graph: line, SDNMembers: []idr.ASN{9}}); err == nil {
		t.Fatal("unknown SDN member should error")
	}
	for _, loss := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := New(Config{Graph: line, LinkLoss: loss}); err == nil {
			t.Fatalf("link loss %v should error", loss)
		}
	}
	e, err := New(Config{Graph: line, Timers: fastTimers()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("double start should error")
	}
	if err := e.Announce(9); err == nil {
		t.Fatal("announce for unknown AS should error")
	}
	if err := e.FailLink(1, 9); err == nil {
		t.Fatal("failing unknown link should error")
	}
	if _, exists := e.Link(1, 9); exists {
		t.Fatal("unknown link should not exist")
	}
}

// raceEnabled reports whether the test binary was built with -race
// (race_test.go sets it).
var raceEnabled bool

// TestNewBytesPerLink bounds what standing up an experiment allocates
// per inter-AS link on a lossless internet-like graph — nodes, links,
// addressing, sessions, everything New does before the first event.
// It is the gate against per-link state nobody uses: an eagerly seeded
// random stream per link (4.9 KB, drawn from only under loss or jitter)
// once made this 8.8 KB per link; without it New measured 3.3 KB, and
// with one record per link and no link table in the address plan (a
// two-entry map per link) it measures 2.4 KB.
func TestNewBytesPerLink(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	g, err := topology.SynthesizeInternetLike(300, newSeededRand(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, Graph: g, Policy: policy.GaoRexford{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perLink := (after.TotalAlloc - before.TotalAlloc) / uint64(g.NumEdges())
	t.Logf("experiment.New: %d bytes per link over %d links", perLink, g.NumEdges())
	if perLink >= 2800 {
		t.Fatalf("experiment.New allocated %d bytes per link on a lossless graph, want < 2800", perLink)
	}
}

// TestEstablishBytesPerSession bounds what bringing the sessions up
// allocates — Start through WaitEstablished, OPEN, KEEPALIVE and the
// timers each session end arms — per session end on a gao-rexford
// internet-like graph. It is the gate on per-session timer state: the
// slot arrays of the timer wheel the kernel once had, growing from
// empty in every new kernel, and a second hold-timer event per session
// end at OpenConfirm, made this 1 201 bytes; with the wheel's lists
// threaded through the events and one hold timer it was 809; with a
// lossless pair's handshake computed (bgp.Opening), no frame or timer
// per session end, it is 24.
// A byte per end is 4% of that, so the ceiling stands two above it.
func TestEstablishBytesPerSession(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	g, err := topology.SynthesizeInternetLike(300, newSeededRand(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Seed: 1, Graph: g, Policy: policy.GaoRexford{}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitEstablished(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	ends := uint64(e.expectedSessions())
	perEnd := (after.TotalAlloc - before.TotalAlloc) / ends
	t.Logf("Start through WaitEstablished: %d bytes per session end over %d ends", perEnd, ends)
	if perEnd > 26 {
		t.Fatalf("establishing allocated %d bytes per session end, want at most 26", perEnd)
	}
}

// TestEstablishAllocsPerSessionEnd bounds everything a session end
// costs from nothing to Established — New, Start and WaitEstablished on
// a gao-rexford internet-like graph — in objects and in bytes per end.
// A per-session key made with fmt, a closure per transport-up event, an
// OPEN encoded per send or boxed per receive, pending-batch maps made
// before the first queue and three objects per link besides the link
// once made this 26.01 objects and 1 759 bytes per end.
//
// To re-measure after a deliberate change, print the counts with
//
//	go test ./internal/experiment -run TestEstablishAllocsPerSessionEnd -v
//
// and set the objects ceiling 0.2% above its count and the bytes
// ceiling 2% above, TestTrialAllocCeiling's rule (5.06 objects and
// 1 043 bytes per end on go1.24 linux/amd64; 5.19 and 1 058 while a
// router kept a map of its originations beside its RIB; 5.87 and 1 078 while a
// table made four maps and a router held an Adj-RIB-Out; 9.37 and 1 381 while every
// handshake was emulated — six events, two hold timers and a keepalive
// timer per link; 13.00 and 1 449 while the
// hold, keepalive and MRAI timers were method values, a session's
// transport was its endpoint's Send method value and a link's state
// hook a method value in a slice; 14.00 and 1 451 before a
// link found its nodes by ASN instead of by formatted name, 14.41 and
// 1 470 when last measured before that, 15.41 objects before a quiet
// pair's second session stopped arming a keepalive timer).
func TestEstablishAllocsPerSessionEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	const maxObjects, maxBytes = 5.08, 1064
	g, err := topology.SynthesizeInternetLike(200, newSeededRand(1))
	if err != nil {
		t.Fatal(err)
	}
	ends := 0
	establish := func() {
		e := build(t, Config{Seed: 1, Graph: g, Policy: policy.GaoRexford{}})
		ends = e.expectedSessions()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	establish() // the graph builds its adjacency index once
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		establish()
	}
	runtime.ReadMemStats(&after)
	per := float64(runs * ends)
	objects := float64(after.Mallocs-before.Mallocs) / per
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / per
	t.Logf("New through WaitEstablished: %.2f objects, %.0f bytes per session end over %d ends (ceilings %.2f, %d)", objects, bytes, ends, maxObjects, maxBytes)
	if objects > maxObjects {
		t.Errorf("%.2f objects per session end, ceiling %.2f", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f bytes per session end, ceiling %d", bytes, maxBytes)
	}
}
