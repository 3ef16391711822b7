package experiment

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/idr"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ribDump renders every legacy router's Loc-RIB as one string, in ASN
// order.
func ribDump(t *testing.T, e *Experiment) string {
	t.Helper()
	var b strings.Builder
	for _, asn := range e.ASNs() {
		r, ok := e.Routers[asn]
		if !ok {
			continue
		}
		b.WriteString("== " + asn.String() + " ==\n")
		if err := r.WriteRIB(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// warmedUp builds cfg, starts it, announces every prefix and runs to
// quiescence — the exact state Sweep.Run snapshots.
func warmedUp(t *testing.T, cfg Config) *Experiment {
	t.Helper()
	e := build(t, cfg)
	announceAllAndSettle(t, e)
	return e
}

// driveTrigger withdraws then re-announces the origin and settles,
// returning both convergence durations.
func driveTrigger(t *testing.T, e *Experiment) (d1, d2 time.Duration) {
	t.Helper()
	var err error
	d1, err = e.MeasureConvergence(func() error { return e.Withdraw(1) }, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	d2, err = e.MeasureConvergence(func() error { return e.Announce(1) }, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return d1, d2
}

// jitterTimers enables MRAI jitter so the kernel RNG stream position
// matters.
func jitterTimers() bgp.Timers {
	tm := fastTimers()
	tm.MRAIJitter = true
	return tm
}

// TestSnapshotRoundTripIdentical is the core fidelity check: capture a
// warmed-up experiment, rebuild it from Config + snapshot bytes, then
// drive the original and the restored copy through the same triggering
// events. Routing state, UPDATE counters, convergence durations and
// the virtual clock must match exactly. Kernel event counts and netem
// delivery counters are deliberately NOT compared: the snapshot drops
// in-flight keepalive frames (behaviorally invisible at quiescence).
func TestSnapshotRoundTripIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"pure-bgp-ring", Config{Seed: 7, Graph: mustGraph(topology.Ring(5)), Timers: jitterTimers()}},
		{"hybrid-clique", Config{Seed: 11, Graph: mustGraph(topology.Clique(5)), Timers: jitterTimers(),
			SDNMembers: []idr.ASN{2, 3}}},
		{"lossy-line", Config{Seed: 23, Graph: mustGraph(topology.Line(4)), Timers: jitterTimers(),
			LinkLoss: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e1 := warmedUp(t, tc.cfg)

			snap, err := e1.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeSnapshot(raw)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := Restore(tc.cfg, decoded)
			if err != nil {
				t.Fatal(err)
			}

			if got, want := e2.K.Now(), e1.K.Now(); !got.Equal(want) {
				t.Fatalf("restored clock %v != %v", got, want)
			}
			if got, want := ribDump(t, e2), ribDump(t, e1); got != want {
				t.Fatalf("restored RIBs differ:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
			}

			d1a, d1b := driveTrigger(t, e1)
			d2a, d2b := driveTrigger(t, e2)
			if d1a != d2a || d1b != d2b {
				t.Fatalf("convergence diverged: original (%v, %v), restored (%v, %v)", d1a, d1b, d2a, d2b)
			}
			s1, r1 := e1.UpdateTotals()
			s2, r2 := e2.UpdateTotals()
			if s1 != s2 || r1 != r2 {
				t.Fatalf("update totals diverged: original (%d, %d), restored (%d, %d)", s1, r1, s2, r2)
			}
			if got, want := ribDump(t, e2), ribDump(t, e1); got != want {
				t.Fatalf("post-trigger RIBs differ:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
			}
			if !e2.K.Now().Equal(e1.K.Now()) {
				t.Fatalf("post-trigger clocks diverged: %v != %v", e2.K.Now(), e1.K.Now())
			}
			if e1.Detector.Events() != e2.Detector.Events() {
				t.Fatalf("detector events diverged: %d != %d", e1.Detector.Events(), e2.Detector.Events())
			}
		})
	}
}

// TestSnapshotDecodesRetiredLinkKeys pins that a snapshot stored before
// netem lost its bandwidth queue still decodes: its per-endpoint
// a_departure_ns/b_departure_ns keys are ignored, and what remains is
// the state a current capture encodes.
func TestSnapshotDecodesRetiredLinkKeys(t *testing.T) {
	e := warmedUp(t, Config{Seed: 23, Graph: mustGraph(topology.Line(4)), Timers: fastTimers(), LinkLoss: 0.05})
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.ReplaceAll(string(raw), `"b_arrival_ns":`, `"a_departure_ns":17,"b_departure_ns":19,"b_arrival_ns":`)
	if old == string(raw) {
		t.Fatal("the snapshot has no link state to plant the retired keys in")
	}
	decoded, err := DecodeSnapshot([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSnapshot(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Fatal("a snapshot carrying the retired departure keys decodes to other state")
	}
}

// TestSnapshotForkDivergence restores the same snapshot under two
// different seeds: the forks must both stay correct (full
// reachability after re-convergence) while their jittered dynamics
// are free to differ only where randomness enters.
func TestSnapshotForkDivergence(t *testing.T) {
	cfg := Config{Seed: 7, Graph: mustGraph(topology.Clique(5)), Timers: jitterTimers()}
	e1 := warmedUp(t, cfg)
	snap, err := e1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fork := func(seed int64) *Experiment {
		c := cfg
		c.Seed = seed
		e, err := Restore(c, snap)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	fa, fb := fork(7), fork(1007)
	// Identical fork point: routing state equal before anything runs.
	if ribDump(t, fa) != ribDump(t, fb) {
		t.Fatal("forks differ at the fork point")
	}
	for _, f := range []*Experiment{fa, fb} {
		if _, _, err := driveTriggerOK(f); err != nil {
			t.Fatal(err)
		}
		for _, from := range f.ASNs() {
			if !f.Reachable(from, 1) {
				t.Fatalf("fork: %v cannot reach origin after re-announce", from)
			}
		}
	}
	// Final routing state re-converges to the same answer; only the
	// timing (jitter draws) differed along the way.
	if ribDump(t, fa) != ribDump(t, fb) {
		t.Fatal("forks converged to different routing state")
	}
}

// TestSnapshotMidInstantRoundTripAndFork captures the experiment while
// the kernel is halfway through the events of one instant and checks
// both continuation fidelity and forking. Four test events share one
// instant; the kernel stops after the second, so the snapshot's
// KernelState carries a clock pinned to that instant and sequence
// numbers already consumed by the unexecuted half.
func TestSnapshotMidInstantRoundTripAndFork(t *testing.T) {
	cfg := Config{Seed: 7, Graph: mustGraph(topology.Clique(5)), Timers: jitterTimers()}
	e1 := warmedUp(t, cfg)

	var ran int
	for i := 0; i < 4; i++ {
		e1.K.AfterFunc(50*time.Millisecond, func() { ran++ })
	}
	at := e1.K.Now().Add(50 * time.Millisecond)
	if err := e1.K.RunWhile(func() bool { return ran < 2 }); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("stopped after %d events of the instant, want 2", ran)
	}
	if !e1.K.Now().Equal(at) {
		t.Fatalf("clock %v not pinned to the shared instant %v", e1.K.Now(), at)
	}

	snap, err := e1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e2.K.Now(), e1.K.Now(); !got.Equal(want) {
		t.Fatalf("restored clock %v != %v", got, want)
	}
	if got, want := ribDump(t, e2), ribDump(t, e1); got != want {
		t.Fatalf("restored RIBs differ:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
	}
	d1a, d1b := driveTrigger(t, e1)
	d2a, d2b := driveTrigger(t, e2)
	if d1a != d2a || d1b != d2b {
		t.Fatalf("convergence diverged: original (%v, %v), restored (%v, %v)", d1a, d1b, d2a, d2b)
	}
	s1, r1 := e1.UpdateTotals()
	s2, r2 := e2.UpdateTotals()
	if s1 != s2 || r1 != r2 {
		t.Fatalf("update totals diverged: original (%d, %d), restored (%d, %d)", s1, r1, s2, r2)
	}
	if got, want := ribDump(t, e2), ribDump(t, e1); got != want {
		t.Fatalf("post-trigger RIBs differ:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
	}

	// The same mid-instant snapshot forks under a fresh seed: jittered
	// dynamics may differ, the converged answer must not.
	fc := cfg
	fc.Seed = 1007
	fork, err := Restore(fc, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := driveTriggerOK(fork); err != nil {
		t.Fatal(err)
	}
	for _, from := range fork.ASNs() {
		if !fork.Reachable(from, 1) {
			t.Fatalf("fork: %v cannot reach origin after re-announce", from)
		}
	}
	if ribDump(t, fork) != ribDump(t, e1) {
		t.Fatal("fork converged to different routing state")
	}
}

// driveTriggerOK is driveTrigger without the test dependency, for
// closures that tolerate errors.
func driveTriggerOK(e *Experiment) (time.Duration, time.Duration, error) {
	d1, err := e.MeasureConvergence(func() error { return e.Withdraw(1) }, 30*time.Minute)
	if err != nil {
		return 0, 0, err
	}
	d2, err := e.MeasureConvergence(func() error { return e.Announce(1) }, 30*time.Minute)
	if err != nil {
		return 0, 0, err
	}
	return d1, d2, nil
}

// TestSnapshotRefusals pins the guarded error paths: unstarted
// experiments and version skew.
func TestSnapshotRefusals(t *testing.T) {
	cfg := Config{Seed: 1, Graph: mustGraph(topology.Line(3)), Timers: fastTimers()}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("snapshot of an unstarted experiment succeeded")
	}
	e2 := warmedUp(t, cfg)
	snap, err := e2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = SnapshotVersion + 1
	if _, err := Restore(cfg, snap); err == nil {
		t.Fatal("restore accepted a future snapshot version")
	}
	raw, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(raw); err == nil {
		t.Fatal("decode accepted a future snapshot version")
	}
}

// updateTimes steps e to quiescence (or the deadline) one event at a
// time and returns, for each event that sent UPDATEs, its virtual time
// and the routers' running sent total. each, when set, runs after
// every event.
func updateTimes(e *Experiment, deadline time.Time, each func()) []string {
	var out []string
	sent, _ := e.UpdateTotals()
	for e.K.Now().Before(deadline) && e.K.Step() {
		if now, _ := e.UpdateTotals(); now != sent {
			sent = now
			out = append(out, fmt.Sprintf("%v %d", e.K.Now().Sub(sim.Epoch), sent))
		}
		if each != nil {
			each()
		}
	}
	return out
}

// TestSnapshotMidExplorationPendingMRAI takes the snapshots no other
// test takes: in the middle of path exploration, with MRAI timers
// armed and announcements queued behind them, or with a session idle
// but still inside its advertisement interval (every warmed-up
// snapshot is quiescent, so nothing else notices when bgp.Peer.restore
// skips the re-arm or loses nextAdvAllowed). Each restored run must
// send its remaining UPDATEs at exactly the uninterrupted run's times.
// A snapshot is taken at every instant after the withdrawal at which
// every UPDATE sent has been received — in-flight frames are not
// captured (a dropped KEEPALIVE is invisible; a dropped UPDATE would
// not be).
func TestSnapshotMidExplorationPendingMRAI(t *testing.T) {
	cfg := Config{Seed: 3, Graph: mustGraph(topology.Clique(6)), Timers: jitterTimers()}
	e1 := warmedUp(t, cfg)
	if err := e1.Withdraw(1); err != nil {
		t.Fatal(err)
	}
	deadline := e1.K.Now().Add(10 * time.Minute)
	type point struct {
		raw           []byte
		sent          uint64
		armed, queued int
	}
	var points []point
	want := updateTimes(e1, deadline, func() {
		sent, recv := e1.UpdateTotals()
		if sent != recv {
			return
		}
		snap, err := e1.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		pt := point{sent: sent}
		for _, r := range snap.Routers {
			for _, p := range r.State.Peers {
				if p.Mrai != nil {
					pt.armed++
					pt.queued += len(p.PendingAnnounce)
				}
			}
		}
		if n := len(points); n > 0 && points[n-1].sent == sent && points[n-1].armed == pt.armed {
			return // the same state as the last point
		}
		if pt.raw, err = EncodeSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		points = append(points, pt)
	})
	if len(want) == 0 || len(points) == 0 {
		t.Fatalf("exploration gave %d UPDATE-sending events and %d snapshot points", len(want), len(points))
	}
	queued := 0
	for _, pt := range points {
		queued += pt.queued
		decoded, err := DecodeSnapshot(pt.raw)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Restore(cfg, decoded)
		if err != nil {
			t.Fatal(err)
		}
		at := e2.K.Now().Sub(sim.Epoch)
		got := updateTimes(e2, deadline, nil)
		if len(got) > len(want) || !slices.Equal(got, want[len(want)-len(got):]) {
			t.Fatalf("snapshot at %v (%d MRAI timers armed, %d announcements queued): remaining UPDATE times diverged:\n uninterrupted %v\n restored      %v", at, pt.armed, pt.queued, want, got)
		}
		if s1, r1 := e1.UpdateTotals(); s1 != r1 {
			t.Fatalf("uninterrupted run ended with %d UPDATEs sent, %d received", s1, r1)
		} else if s2, r2 := e2.UpdateTotals(); s2 != s1 || r2 != r1 {
			t.Fatalf("snapshot at %v: update totals (%d, %d), uninterrupted (%d, %d)", at, s2, r2, s1, r1)
		}
		if got, want := ribDump(t, e2), ribDump(t, e1); got != want {
			t.Fatalf("snapshot at %v: final RIBs differ:\n--- uninterrupted ---\n%s\n--- restored ---\n%s", at, want, got)
		}
	}
	if queued == 0 {
		t.Fatal("no snapshot point had an announcement queued behind an MRAI timer")
	}
	t.Logf("%d snapshot points, %d UPDATE-sending events", len(points), len(want))
}
