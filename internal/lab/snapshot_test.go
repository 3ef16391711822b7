package lab

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
)

// snapTimers returns fast test timers; jitter makes the kernel RNG
// stream position (and so the per-run seed) matter.
func snapTimers(jitter bool) bgp.Timers {
	return bgp.Timers{
		HoldTime:   90 * time.Second,
		MRAI:       2 * time.Second,
		MRAIJitter: jitter,
	}
}

// TestRunFromSnapshotMatchesRun is the lab-level round-trip property
// test: across seeded random (topology, policy, workload) triples, a
// trial measured from its own restored warm-up snapshot — warm up,
// snapshot, encode, decode, restore, measure — must produce exactly the
// Result of the plain path. The fork leg covers seed sharing: when the
// warm-up draws no randomness (no MRAI jitter, no loss), a snapshot
// taken under another seed restored under this trial's seed must still
// equal this trial's Run().
func TestRunFromSnapshotMatchesRun(t *testing.T) {
	topos := []TopoSpec{
		{Kind: "clique", N: 5},
		{Kind: "ring", N: 6},
		{Kind: "line", N: 5},
		{Kind: "grid", N: 2, M: 3},
		{Kind: "er", N: 7, P: 0.6},
	}
	policies := []PolicySpec{{}, {Kind: PolicyGaoRexford}, {Kind: PolicyPrefixFilter}}
	workloads := []func(tr *Trial){
		func(tr *Trial) { tr.Event = Withdrawal },
		func(tr *Trial) { tr.Event = Announcement },
		func(tr *Trial) { tr.Event = Failover },
		func(tr *Trial) { tr.Event = Hijack },
		func(tr *Trial) {
			tr.Workload = Workload{
				{At: 0, Kind: KindWithdrawal},
				{At: 2 * time.Minute, Kind: KindAnnouncement},
			}
		},
	}
	rng := rand.New(rand.NewSource(42))
	forks := 0
	for i := 0; i < 8; i++ {
		tr := Trial{
			Topo:     topos[rng.Intn(len(topos))],
			Policy:   policies[rng.Intn(len(policies))],
			Timers:   snapTimers(rng.Intn(2) == 0),
			Seed:     rng.Int63n(1000),
			TopoSeed: 7,
		}
		workloads[rng.Intn(len(workloads))](&tr)
		if rng.Intn(2) == 0 && tr.Topo.Nodes() >= 5 {
			tr.Placement = Placement{Strategy: PlaceLast, K: 2}
		}
		name := tr.Topo.String() + "/" + tr.Policy.String()
		fork := !tr.Timers.MRAIJitter
		if fork {
			forks++
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := tr.Run()
			if err != nil {
				t.Fatal(err)
			}
			check := func(leg string, from Trial) {
				raw, err := from.WarmupSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				got, err := tr.RunFromSnapshot(raw)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s snapshot run diverged from plain run:\nplain: %+v\nsnap:  %+v", leg, want, got)
				}
			}
			check("own", tr)
			if fork {
				other := tr
				other.Seed += 1000
				check("forked", other)
			}
		})
	}
	if forks == 0 {
		t.Fatal("no jitter-free trial in the table; the fork leg ran nowhere")
	}
}

// explorationPlan warms up a 6-AS clique with MRAI jitter and sets off
// path exploration with experiment commands alone: AS 6 withdraws its
// prefix and the 5-6 link fails. reach(n) replays that on a fresh
// experiment and steps the kernel n events further; the plan measures
// the trial's own withdrawal from there.
func explorationPlan(t *testing.T, seed int64) (*prepared, func(n int) *experiment.Experiment) {
	t.Helper()
	tr := Trial{Topo: TopoSpec{Kind: "clique", N: 6}, Timers: snapTimers(true), Event: Withdrawal, Seed: seed, TopoSeed: 7}
	p, err := tr.prepare()
	if err != nil {
		t.Fatal(err)
	}
	return p, func(n int) *experiment.Experiment {
		e, err := p.warmup()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Withdraw(6); err != nil {
			t.Fatal(err)
		}
		if err := e.FailLink(5, 6); err != nil {
			t.Fatal(err)
		}
		for range n {
			if !e.K.Step() {
				t.Fatalf("the exploration ended before event %d", n)
			}
		}
		return e
	}
}

// continuations snapshots e, measures e and a restore of the snapshot
// under p's seed, and returns both Results as JSON.
func continuations(t *testing.T, p *prepared, e *experiment.Experiment) (original, restored []byte) {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := experiment.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.restore(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range []*experiment.Experiment{e, r} {
		res, err := p.measure(x)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			original = out
		} else {
			restored = out
		}
	}
	return original, restored
}

// TestSnapshotMidExplorationPendingMRAI snapshots in the middle of path
// exploration, reached by experiment commands alone: at ten points
// spread over it, with UPDATEs in flight at some and, at others, none in
// flight but MRAI timers still pending. Measured from each point, the
// restored continuation's Result must equal the original's byte for
// byte.
func TestSnapshotMidExplorationPendingMRAI(t *testing.T) {
	p, reach := explorationPlan(t, 3)
	e := reach(0)
	start := e.K.Events()
	for e.K.Step() {
	}
	span := int(e.K.Events() - start)
	inFlight, quiet := 0, 0
	for i := 1; i <= 10; i++ {
		n := span * i / 11
		e := reach(n)
		if sent, recv := e.UpdateTotals(); sent != recv {
			inFlight++
		} else if e.K.Pending() > 0 {
			quiet++
		}
		original, restored := continuations(t, p, e)
		if string(original) != string(restored) {
			t.Fatalf("snapshot %d events into the exploration:\n original %s\n restored %s", n, original, restored)
		}
	}
	if inFlight == 0 || quiet == 0 {
		t.Fatalf("of ten points in %d events, %d had UPDATEs in flight and %d only timers pending; want some of each", span, inFlight, quiet)
	}
}

// TestSnapshotMidInstantRoundTripAndFork snapshots the exploration of
// TestSnapshotMidExplorationPendingMRAI halfway through the events of
// one instant, with UPDATEs in flight. Measured from there, the
// restored continuation's Result must equal the original's byte for
// byte; restored under a fresh seed, the fork must measure a run that
// ends with every AS routing as the original's does.
func TestSnapshotMidInstantRoundTripAndFork(t *testing.T) {
	p, reach := explorationPlan(t, 7)
	e := reach(0)
	n := 0
	for {
		sent, recv := e.UpdateTotals()
		at := e.K.Now()
		if !e.K.Step() {
			t.Fatal("no instant of the exploration ran two events with UPDATEs in flight")
		}
		if e.K.Now().Equal(at) && n > 0 && sent != recv {
			break // event n ran at the instant of event n+1
		}
		n++
	}
	e = reach(n)
	original, restored := continuations(t, p, e)
	if string(original) != string(restored) {
		t.Fatalf("mid-instant snapshot at event %d:\n original %s\n restored %s", n, original, restored)
	}

	fork := p.trial
	fork.Seed = 1007
	fp, err := fork.prepare()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := reach(n).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := experiment.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fp.restore(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fp.measure(f)
	if err != nil {
		t.Fatal(err)
	}
	var want Result
	if err := json.Unmarshal(original, &want); err != nil {
		t.Fatal(err)
	}
	if res.ReachableAfter != want.ReachableAfter {
		t.Fatalf("the fork ends reachable %v, the original %v", res.ReachableAfter, want.ReachableAfter)
	}
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			want, _ := e.BestPath(from, to)
			if got, _ := f.BestPath(from, to); !got.Equal(want) {
				t.Fatalf("the fork routes %v toward %v over %v, the original over %v", from, to, got, want)
			}
		}
	}
}
