package lab

import (
	"runtime"
	"testing"
	"time"
)

// raceEnabled reports whether the test binary was built with -race
// (race_test.go sets it).
var raceEnabled bool

// perRun is testing.AllocsPerRun with bytes: the objects and the bytes
// f allocates per call, averaged over runs calls after one warm-up, on
// one P.
func perRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTrialAllocCeiling bounds the heap allocations of one whole
// emulation run — the paper's Figure 2 unit of work (clique-16
// withdrawal; build, establish, warm up, trigger, measure) at 0% and
// 50% SDN — in objects and in bytes. It is the allocation gate on
// every layer at once: a new per-UPDATE, per-frame or per-event
// allocation anywhere under Trial.Run lands here. The bytes ceiling is
// there because an object count cannot see size: a 1.3 KB map group
// re-allocated on every MRAI flush was one object among many for 15
// PRs and 40% of clique16-pure's bytes. Speed and spread are
// labbench's to record (workloads clique16-pure and clique16-half);
// this only holds ceilings, and a deterministic run makes the counts
// exact to a few objects of runtime noise.
//
// To re-measure after a deliberate change, print the counts with
//
//	go test ./internal/lab -run TestTrialAllocCeiling -v
//
// and set each object ceiling 0.2% above its count (19 620 and
// 19 777 on go1.24 linux/amd64, 3.06 and 2.85 MiB; 26 019 and 31 732,
// 4.31 and 3.74 MiB, while every sender allocated its frame; 32 574 and 37 900,
// 4.51 and 3.93 MiB, while an AS path was a list of segments, each
// holding a slice of ASNs; 32 616 and 37 922,
// 4.52 and 3.94 MiB, while a router kept its originations beside its
// RIB and counted the prefixes it sent; 36 435 and 39 845,
// 6.34 and 4.93 MiB, while each prefix's RIB state was spread over
// four maps and each session's export state over three; 36 784 and 39 919 while every
// handshake was emulated; 37 879 and 40 930 before timers fired
// through their owners, frames left through their endpoints and links
// told their record directly; 38 115 and 41 856 before links found
// their nodes by ASN and the controller re-armed one debounce timer
// and kept its candidates in sorted slices; 38 428 and 42 048 before
// quiet sessions, whose queue marks also cost 6.31 → 6.40 and 4.94 →
// 5.01 MiB) — tight enough that one extra
// allocation per UPDATE in rib.Table.decide, or per session per
// recompute in the controller, breaks it — and each bytes ceiling 2%
// above, rounded up to the hundredth (size classes and slice growth
// make bytes the looser number; a ceiling is never raised by the
// rule). The race detector's
// runtime allocates on its own account, so the test skips under -race.
func TestTrialAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	for _, c := range []struct {
		name         string
		k            int
		objects, mib float64
	}{
		{"clique16-pure", 0, 19660, 3.13},
		{"clique16-half", 8, 19817, 2.91},
	} {
		trial := Trial{
			Topo:            TopoSpec{Kind: "clique", N: 16},
			Placement:       Placement{Strategy: PlaceLast, K: c.k},
			Event:           Withdrawal,
			Debounce:        100 * time.Millisecond,
			ProcessingDelay: 25 * time.Millisecond,
			Seed:            1,
		}
		objects, bytes := perRun(3, func() {
			if _, err := trial.Run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f objects, %.2f MiB per run (ceilings %.0f, %.2f)", c.name, objects, bytes/(1<<20), c.objects, c.mib)
		if objects > c.objects {
			t.Errorf("%s: %.0f objects per run, ceiling %.0f", c.name, objects, c.objects)
		}
		if bytes > c.mib*(1<<20) {
			t.Errorf("%s: %.2f MiB per run, ceiling %.2f", c.name, bytes/(1<<20), c.mib)
		}
	}
}
