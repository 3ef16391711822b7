package lab

import (
	"testing"
	"time"
)

// raceEnabled reports whether the test binary was built with -race
// (race_test.go sets it).
var raceEnabled bool

// TestTrialAllocCeiling bounds the heap allocations of one whole
// emulation run — the paper's Figure 2 unit of work (clique-16
// withdrawal; build, establish, warm up, trigger, measure) at 0% and
// 50% SDN. It is the allocation gate on every layer at once: a new
// per-UPDATE, per-frame or per-event allocation anywhere under
// Trial.Run lands here. Speed and spread are labbench's to record
// (workloads clique16-pure and clique16-half); this only holds a
// ceiling, and a deterministic run makes the count exact to a few
// objects of runtime noise.
//
// To re-measure after a deliberate change, print the counts with
//
//	go test ./internal/lab -run TestTrialAllocCeiling -v
//
// and set each ceiling 0.2% above its count (215 732 and 674 308 on
// go1.24 linux/amd64): tight enough that one extra allocation per
// UPDATE in rib.Table.decide breaks both. The race detector's runtime
// allocates on its own account (+5.0% and +0.8% here), so the test
// skips under -race.
func TestTrialAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	for _, c := range []struct {
		name    string
		k       int
		ceiling float64
	}{
		{"clique16-pure", 0, 216200},
		{"clique16-half", 8, 675700},
	} {
		trial := Trial{
			Topo:            TopoSpec{Kind: "clique", N: 16},
			Placement:       Placement{Strategy: PlaceLast, K: c.k},
			Event:           Withdrawal,
			Debounce:        100 * time.Millisecond,
			ProcessingDelay: 25 * time.Millisecond,
			Seed:            1,
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := trial.Run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per run (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs per run, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
