package experiment

import (
	"bytes"
	"fmt"
	"maps"
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

// runState renders what a continuation must agree on: the kernel's
// counters and pending count, the UPDATE and frame totals, the
// detector's last activity, the probe counters and every Loc-RIB.
func runState(t *testing.T, e *Experiment) string {
	t.Helper()
	sent, recv := e.UpdateTotals()
	delivered, dropped, bytes := e.Traffic()
	return fmt.Sprintf("kernel %+v pending %d updates %d/%d traffic %d/%d/%d activity %v probes %v\n%s",
		e.K.State(), e.K.Pending(), sent, recv, delivered, dropped, bytes,
		e.Detector.LastActivity(), e.Probes.Stats(), ribDump(t, e))
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
	d1, d2, err := driveTriggerOK(e)
	if err != nil {
		t.Fatal(err)
	}
	return d1, d2
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

// jitterTimers enables MRAI jitter so the kernel RNG stream position
// matters.
func jitterTimers() bgp.Timers {
	tm := fastTimers()
	tm.MRAIJitter = true
	return tm
}

// restored snapshots e, sends the snapshot through its encoding and
// restores it under cfg.
func restored(t *testing.T, cfg Config, e *Experiment) *Experiment {
	t.Helper()
	r, err := roundTrip(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSnapshotRoundTripIdentical is the core fidelity check: capture a
// warmed-up experiment, rebuild it from Config + snapshot bytes, then
// drive the original and the restored copy through the same triggering
// events. The kernel's counters and pending events, the UPDATE and
// frame totals, routing state, convergence durations and the clock
// must match exactly, at the fork point and after.
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
			if err := e1.InjectProbe(2, 1); err != nil {
				t.Fatal(err)
			}
			e2 := restored(t, tc.cfg, e1)
			if got, want := runState(t, e2), runState(t, e1); got != want {
				t.Fatalf("restored state differs:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
			}
			d1a, d1b := driveTrigger(t, e1)
			d2a, d2b := driveTrigger(t, e2)
			if d1a != d2a || d1b != d2b {
				t.Fatalf("convergence diverged: original (%v, %v), restored (%v, %v)", d1a, d1b, d2a, d2b)
			}
			if got, want := runState(t, e2), runState(t, e1); got != want {
				t.Fatalf("post-trigger state differs:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
			}
		})
	}
}

// TestSnapshotAcrossMigrationAndFaults snapshots where the wiring no
// longer matches the Config: after migrations both ways, during a
// controller crash and during a partition. Each restore must continue
// exactly as the original does.
func TestSnapshotAcrossMigrationAndFaults(t *testing.T) {
	cfg := Config{Seed: 5, Graph: mustGraph(topology.Clique(6)), Timers: jitterTimers(), SDNMembers: []idr.ASN{2, 3}}
	e := warmedUp(t, cfg)
	steps := []struct {
		name string
		act  func() error
	}{
		{"migrate 4 in", func() error { return e.Migrate(4) }},
		{"migrate 2 out", func() error { return e.Migrate(2) }},
		{"controller down", e.ControllerDown},
		{"controller up", e.ControllerUp},
		{"partition", e.Partition},
		{"heal", e.Heal},
	}
	for _, s := range steps {
		if err := s.act(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := e.RunFor(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		r := restored(t, cfg, e)
		if got, want := runState(t, r), runState(t, e); got != want {
			t.Fatalf("%s: restored state differs:\n--- original ---\n%s\n--- restored ---\n%s", s.name, want, got)
		}
		for _, x := range []*Experiment{e, r} {
			if _, err := x.WaitConverged(30 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := runState(t, r), runState(t, e); got != want {
			t.Fatalf("%s: converged states differ:\n--- original ---\n%s\n--- restored ---\n%s", s.name, want, got)
		}
	}
}

// TestSnapshotAfterEachCommand snapshots a measurement right after each
// kind of command, with the UPDATEs and probes it set off still in
// flight, on a hybrid clique and, for the crash and recovery of no
// controller, at K = 0. Every command but inject-probe must touch the
// convergence detector where it runs, and the restore must read the
// detector's last activity and the probe counters the original reads,
// there and once both have run on.
func TestSnapshotAfterEachCommand(t *testing.T) {
	hybrid := Config{Seed: 5, Graph: mustGraph(topology.Clique(6)), Timers: jitterTimers(), SDNMembers: []idr.ASN{2, 3}}
	pure := Config{Seed: 5, Graph: mustGraph(topology.Clique(6)), Timers: jitterTimers()}
	type step struct {
		kind string
		act  func(e *Experiment) error
	}
	hijack := func(e *Experiment) error {
		prefix, err := e.OriginPrefix(1)
		if err != nil {
			return err
		}
		return e.AnnounceForeign(5, prefix)
	}
	for _, run := range []struct {
		name  string
		cfg   Config
		steps []step
	}{
		{"hybrid", hybrid, []step{
			{"inject-probe", func(e *Experiment) error { return e.InjectProbe(4, 1) }},
			{"withdraw", func(e *Experiment) error { return e.Withdraw(1) }},
			{"announce", func(e *Experiment) error { return e.Announce(1) }},
			{"withdraw", func(e *Experiment) error { return e.Withdraw(2) }},
			{"announce", func(e *Experiment) error { return e.Announce(2) }},
			{"announce-foreign", hijack},
			{"fail-link", func(e *Experiment) error { return e.FailLink(4, 5) }},
			{"inject-probe", func(e *Experiment) error { return e.InjectProbe(2, 6) }},
			{"restore-link", func(e *Experiment) error { return e.RestoreLink(4, 5) }},
			{"session-reset", func(e *Experiment) error { return e.SessionReset(4, 6) }},
			{"migrate-in", func(e *Experiment) error { return e.MigrateIn(4) }},
			{"migrate-out", func(e *Experiment) error { return e.MigrateOut(2) }},
			{"controller-down", (*Experiment).ControllerDown},
			{"controller-up", (*Experiment).ControllerUp},
			{"partition", (*Experiment).Partition},
			{"heal", (*Experiment).Heal},
		}},
		{"K=0", pure, []step{
			{"inject-probe", func(e *Experiment) error { return e.InjectProbe(4, 1) }},
			{"controller-down", (*Experiment).ControllerDown},
			{"controller-up", (*Experiment).ControllerUp},
		}},
	} {
		e := warmedUp(t, run.cfg)
		for i, s := range run.steps {
			if err := e.RunFor(150 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if err := s.act(e); err != nil {
				t.Fatalf("%s: step %d (%s): %v", run.name, i, s.kind, err)
			}
			if got := e.log[len(e.log)-1].Kind; got != s.kind {
				t.Fatalf("%s: step %d logged %q, want %q", run.name, i, got, s.kind)
			}
			if s.kind != "inject-probe" && !e.Detector.LastActivity().Equal(e.K.Now()) {
				t.Fatalf("%s: step %d (%s) left the detector's last activity at %v, not at the command's %v",
					run.name, i, s.kind, e.Detector.LastActivity().Sub(sim.Epoch), e.K.Elapsed())
			}
			r := restored(t, run.cfg, e)
			for _, at := range []string{"at the snapshot", "100ms on"} {
				if got, want := r.Detector.LastActivity(), e.Detector.LastActivity(); !got.Equal(want) {
					t.Fatalf("%s: after step %d (%s), %s: the restore's last activity is %v, the original's %v",
						run.name, i, s.kind, at, got.Sub(sim.Epoch), want.Sub(sim.Epoch))
				}
				if got, want := r.Probes.Stats(), e.Probes.Stats(); !maps.Equal(got, want) {
					t.Fatalf("%s: after step %d (%s), %s: the restore's probe counters are %v, the original's %v",
						run.name, i, s.kind, at, got, want)
				}
				for _, x := range []*Experiment{e, r} {
					if err := x.RunFor(100 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, want := runState(t, r), runState(t, e); got != want {
				t.Fatalf("%s: after step %d (%s): states differ:\n--- original ---\n%s\n--- restored ---\n%s", run.name, i, s.kind, want, got)
			}
		}
		if sent := e.Probes.TotalLoss().Sent; sent == 0 {
			t.Fatalf("%s: no probe was sent", run.name)
		}
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

// TestForkIsLogged restores one snapshot twice under a fresh seed: the
// restores must snapshot to the same bytes, with the fork as their last
// command, and a restore of that snapshot under the fork's seed must
// continue the fork exactly.
func TestForkIsLogged(t *testing.T) {
	cfg := Config{Seed: 7, Graph: mustGraph(topology.Clique(5)), Timers: jitterTimers()}
	snap, err := warmedUp(t, cfg).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fc := cfg
	fc.Seed = 1007
	var docs [2][]byte
	var forks [2]*Experiment
	for i := range docs {
		if forks[i], err = Restore(fc, snap); err != nil {
			t.Fatal(err)
		}
		again, err := forks[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if last := again.Log[len(again.Log)-1]; last.Kind != "fork" || last.Seed != 1007 || again.Seed != 7 {
			t.Fatalf("the fork snapshots as seed %d, last command %+v", again.Seed, last)
		}
		if docs[i], err = EncodeSnapshot(again); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("two restores of one snapshot under one seed snapshot differently")
	}
	again := restored(t, fc, forks[0])
	driveTrigger(t, forks[0])
	driveTrigger(t, again)
	if got, want := runState(t, again), runState(t, forks[0]); got != want {
		t.Fatalf("the restored fork diverged:\n--- fork ---\n%s\n--- restored ---\n%s", want, got)
	}
}

// TestSnapshotRefusals pins the guarded error paths: unstarted
// experiments, version skew, commands of unknown kind, stamps that go
// back, and a replay that does not land on the recorded counters.
func TestSnapshotRefusals(t *testing.T) {
	cfg := Config{Seed: 1, Graph: mustGraph(topology.Line(3)), Timers: fastTimers()}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("snapshot of an unstarted experiment succeeded")
	}
	snap, err := warmedUp(t, cfg).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	future := *snap
	future.Version = SnapshotVersion + 1
	if _, err := Restore(cfg, &future); err == nil {
		t.Fatal("restore accepted a future snapshot version")
	}
	for _, c := range []struct {
		name   string
		change func(s *Snapshot)
	}{
		{"future version", func(s *Snapshot) { s.Version++ }},
		{"unknown command", func(s *Snapshot) { s.Log[1].Kind = "reboot" }},
		{"command back in events", func(s *Snapshot) { s.Log[2].Events = s.Log[1].Events - 1 }},
		{"command back in time", func(s *Snapshot) { s.Log[0].NowNS = -1 }},
		{"kernel back from the log", func(s *Snapshot) { s.Kernel.Events = s.Log[len(s.Log)-1].Events - 1 }},
	} {
		bad := *snap
		bad.Log = append([]Command(nil), snap.Log...)
		c.change(&bad)
		raw, err := EncodeSnapshot(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(raw); err == nil {
			t.Fatalf("%s: decode accepted it", c.name)
		}
	}
	for _, c := range []struct {
		name   string
		cfg    Config
		change func(s *Snapshot)
	}{
		{"sequence off", cfg, func(s *Snapshot) { s.Kernel.Seq++ }},
		{"draws off", cfg, func(s *Snapshot) { s.Kernel.Draws++ }},
		{"an event too many", cfg, func(s *Snapshot) { s.Kernel.Events++ }},
		{"a command too early", cfg, func(s *Snapshot) { s.Log[1].Events-- }},
		{"another topology", Config{Seed: 1, Graph: mustGraph(topology.Ring(3)), Timers: fastTimers()}, func(*Snapshot) {}},
	} {
		bad := *snap
		bad.Log = append([]Command(nil), snap.Log...)
		c.change(&bad)
		if _, err := Restore(c.cfg, &bad); err == nil {
			t.Fatalf("%s: restore landed anyway", c.name)
		}
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

// TestSnapshotMidExplorationPendingMRAI snapshots in the middle of path
// exploration, reached by experiment commands alone (AS 1 withdraws its
// prefix on a 6-AS clique with MRAI jitter): at twelve points spread
// over it, with UPDATEs in flight at some and, at others, none in
// flight but announcements still queued behind MRAI timers. Each
// restored run must send its remaining UPDATEs at exactly the
// uninterrupted run's times and end in the uninterrupted run's state.
func TestSnapshotMidExplorationPendingMRAI(t *testing.T) {
	cfg := Config{Seed: 3, Graph: mustGraph(topology.Clique(6)), Timers: jitterTimers()}
	e1 := warmedUp(t, cfg)
	if err := e1.Withdraw(1); err != nil {
		t.Fatal(err)
	}
	deadline := e1.K.Now().Add(10 * time.Minute)
	type point struct {
		raw      []byte
		inFlight bool
	}
	var points []point
	want := updateTimes(e1, deadline, func() {
		snap, err := e1.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		sent, recv := e1.UpdateTotals()
		points = append(points, point{raw: raw, inFlight: sent != recv})
	})
	if len(want) == 0 {
		t.Fatal("the withdrawal sent no UPDATE")
	}
	inFlight, queued := 0, 0
	for i := 1; i <= 12; i++ {
		pt := points[len(points)*i/13]
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
			t.Fatalf("snapshot at %v (UPDATEs in flight: %v): remaining UPDATE times diverged:\n uninterrupted %v\n restored      %v", at, pt.inFlight, want, got)
		}
		if pt.inFlight {
			inFlight++
		} else if len(got) > 0 {
			queued++ // nothing in flight, yet UPDATEs to come: an MRAI timer held them
		}
		if got, want := runState(t, e2), runState(t, e1); got != want {
			t.Fatalf("snapshot at %v: final states differ:\n--- uninterrupted ---\n%s\n--- restored ---\n%s", at, want, got)
		}
	}
	if inFlight == 0 || queued == 0 {
		t.Fatalf("of twelve points in %d events, %d had UPDATEs in flight and %d UPDATEs held by MRAI alone; want some of each", len(points), inFlight, queued)
	}
	t.Logf("%d events, %d of them sending UPDATEs; %d points with UPDATEs in flight, %d held by MRAI alone", len(points), len(want), inFlight, queued)
}

// TestSnapshotMidInstantRoundTripAndFork snapshots the exploration of a
// withdrawal on a 5-AS clique with MRAI jitter halfway through the
// events of one instant, with UPDATEs in flight: the kernel has run
// one event of the instant and another is due at the same clock. The
// restored experiment must read as the original at the snapshot,
// send its remaining UPDATEs at the original's times and converge as
// the original after a re-announcement; restored under a fresh seed,
// the fork must end with every AS routing as the original's does.
func TestSnapshotMidInstantRoundTripAndFork(t *testing.T) {
	cfg := Config{Seed: 7, Graph: mustGraph(topology.Clique(5)), Timers: jitterTimers()}
	reach := func(n int) *Experiment {
		e := warmedUp(t, cfg)
		if err := e.Withdraw(1); err != nil {
			t.Fatal(err)
		}
		for range n {
			if !e.K.Step() {
				t.Fatalf("the exploration ended before event %d", n)
			}
		}
		return e
	}
	e1 := reach(0)
	n := 0
	for {
		sent, recv := e1.UpdateTotals()
		at := e1.K.Now()
		if !e1.K.Step() {
			t.Fatal("no instant of the exploration ran two events with UPDATEs in flight")
		}
		if e1.K.Now().Equal(at) && n > 0 && sent != recv {
			break // event n ran at the instant of event n+1
		}
		n++
	}
	e1 = reach(n)
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
	if got, want := runState(t, e2), runState(t, e1); got != want {
		t.Fatalf("restored state differs at event %d:\n--- original ---\n%s\n--- restored ---\n%s", n, want, got)
	}
	deadline := e1.K.Now().Add(10 * time.Minute)
	if got, want := updateTimes(e2, deadline, nil), updateTimes(e1, deadline, nil); !slices.Equal(got, want) {
		t.Fatalf("remaining UPDATE times diverged:\n original %v\n restored %v", want, got)
	}
	for _, e := range []*Experiment{e1, e2} {
		if _, err := e.MeasureConvergence(func() error { return e.Announce(1) }, 30*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := runState(t, e2), runState(t, e1); got != want {
		t.Fatalf("post-trigger state differs:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
	}

	fc := cfg
	fc.Seed = 1007
	fork, err := Restore(fc, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fork.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := fork.Announce(1); err != nil {
		t.Fatal(err)
	}
	if _, err := fork.WaitConverged(30 * time.Minute); err != nil {
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
