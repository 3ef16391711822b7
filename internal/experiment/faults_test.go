package experiment

import (
	"testing"
	"time"

	"repro/internal/idr"
	"repro/internal/topology"
)

// TestSessionReset pins the reset/reconnect fault: bouncing a live
// session leaves the link up, and the network re-converges to the same
// routes it held before the reset.
func TestSessionReset(t *testing.T) {
	g := mustGraph(topology.Clique(4))
	e := build(t, Config{Seed: 1, Graph: g, Timers: fastTimers()})
	announceAllAndSettle(t, e)
	if err := e.SessionReset(1, 2); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			if !e.Reachable(from, to) {
				t.Fatalf("%v cannot reach %v after the session reset", from, to)
			}
		}
	}
	// Resetting a missing or downed link errors.
	if err := e.SessionReset(1, 99); err == nil {
		t.Fatal("reset of a missing link should error")
	}
	if err := e.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.SessionReset(1, 2); err == nil {
		t.Fatal("reset across a downed link should error")
	}
}

// TestControllerCrashRecovery pins the crash/recover cycle: members
// fall back to legacy BGP (the network stays reachable without the
// controller), recovery rebuilds the cluster, and the state machine
// rejects double crashes and recoveries without a crash.
func TestControllerCrashRecovery(t *testing.T) {
	g := mustGraph(topology.Line(4))
	e := build(t, Config{
		Seed: 3, Graph: g, Timers: fastTimers(),
		SDNMembers: []idr.ASN{2, 3},
		Debounce:   200 * time.Millisecond,
	})
	announceAllAndSettle(t, e)

	if e.ControllerCrashed() {
		t.Fatal("crashed before the crash")
	}
	if err := e.ControllerDown(); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if !e.ControllerCrashed() {
		t.Fatal("ControllerCrashed() false after ControllerDown")
	}
	if err := e.ControllerDown(); err == nil {
		t.Fatal("double crash should error")
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Headless: the ex-members are plain routers now and the network
	// still routes end to end.
	if e.IsSDNMember(2) || e.IsSDNMember(3) {
		t.Fatal("members still in the cluster after the crash")
	}
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			if !e.Reachable(from, to) {
				t.Fatalf("%v cannot reach %v while the controller is down", from, to)
			}
		}
	}

	if err := e.ControllerUp(); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if e.ControllerCrashed() {
		t.Fatal("still crashed after recovery")
	}
	if err := e.ControllerUp(); err == nil {
		t.Fatal("recovery without a crash should error")
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !e.IsSDNMember(2) || !e.IsSDNMember(3) {
		t.Fatal("members did not re-join on recovery")
	}
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			if !e.Reachable(from, to) {
				t.Fatalf("%v cannot reach %v after recovery", from, to)
			}
		}
	}
}

// TestControllerCrashNoopWithoutCluster pins the K=0 baseline: crash
// and recovery are no-ops on a pure-BGP experiment, so cluster-size
// sweeps keep their zero column.
func TestControllerCrashNoopWithoutCluster(t *testing.T) {
	g := mustGraph(topology.Line(3))
	e := build(t, Config{Seed: 1, Graph: g, Timers: fastTimers()})
	if err := e.ControllerDown(); err != nil {
		t.Fatalf("pure-BGP crash should be a no-op: %v", err)
	}
	if e.ControllerCrashed() {
		t.Fatal("pure-BGP experiment reports a crashed controller")
	}
	if err := e.ControllerUp(); err != nil {
		t.Fatalf("pure-BGP recovery should be a no-op: %v", err)
	}
}

// TestPartitionHeal pins the seeded partition: the cut splits the
// network (some pair loses reachability), the same seed cuts the same
// edges, and Heal restores full reachability.
func TestPartitionHeal(t *testing.T) {
	g := mustGraph(topology.Ring(6))
	e := build(t, Config{Seed: 5, Graph: g, Timers: fastTimers()})
	announceAllAndSettle(t, e)

	if err := e.Partition(); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	cut := e.PartitionCut()
	if len(cut) == 0 {
		t.Fatal("partition cut no links")
	}
	if err := e.Partition(); err == nil {
		t.Fatal("double partition should error")
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// A ring split in two halves loses cross-half reachability.
	lost := false
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			if from != to && !e.Reachable(from, to) {
				lost = true
			}
		}
	}
	if !lost {
		t.Fatalf("partition (cut %v) severed nothing", cut)
	}

	// The cut is a pure function of the seed.
	e2 := build(t, Config{Seed: 5, Graph: mustGraph(topology.Ring(6)), Timers: fastTimers()})
	if err := e2.Partition(); err != nil {
		t.Fatal(err)
	}
	cut2 := e2.PartitionCut()
	if len(cut) != len(cut2) {
		t.Fatalf("same seed cut %v then %v", cut, cut2)
	}
	for i := range cut {
		if cut[i] != cut2[i] {
			t.Fatalf("same seed cut %v then %v", cut, cut2)
		}
	}

	if err := e.Heal(); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if err := e.Heal(); err == nil {
		t.Fatal("double heal should error")
	}
	if e.PartitionCut() != nil {
		t.Fatal("cut still reported after heal")
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			if !e.Reachable(from, to) {
				t.Fatalf("%v cannot reach %v after heal", from, to)
			}
		}
	}
}
