package lab

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bgp"
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
