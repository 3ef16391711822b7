package figures

import (
	"time"

	"repro/internal/bgp"
	"repro/internal/idr"
	"repro/internal/lab"
)

// SubClusterResult reports the sub-cluster split experiment (design
// goal §2: an intra-cluster link failure must not isolate controlled
// ASes — legacy paths reconnect the sub-clusters).
type SubClusterResult struct {
	// ReachableBeforeSplit and ReachableAfterSplit report whether the
	// two cluster islands could reach each other's prefixes.
	ReachableBeforeSplit, ReachableAfterSplit bool
	// ReconvergenceTime is how long routing took to stabilise after
	// the split.
	ReconvergenceTime time.Duration
}

// SubClusterExperiment builds a ring with two cluster members on
// opposite sides, fails the only intra-cluster link, and verifies the
// islands still reach each other over the legacy world. It is the one
// experiment that is a scripted sequence rather than a sweep, so it
// lives beside the registry instead of in it: lab warms the trial up,
// and the split is measured on the warmed-up experiment.
func SubClusterExperiment(timers bgp.Timers, seed int64) (SubClusterResult, error) {
	var res SubClusterResult
	// Topology: 1 - m2 - m3 - 4 ring, members {m2, m3} adjacent.
	// After failing m2-m3, the path between them runs over legacy
	// ASes 1 and 4.
	e, err := lab.Trial{
		Topo:      lab.TopoSpec{Kind: "ring", N: 4},
		Placement: lab.Placement{Strategy: lab.PlaceExplicit, ASNs: []idr.ASN{2, 3}},
		Timers:    timers,
		Seed:      seed,
		Timeout:   time.Hour,
	}.Warmup()
	if err != nil {
		return res, err
	}
	res.ReachableBeforeSplit = e.Reachable(2, 3) && e.Reachable(3, 2)
	split := lab.WorkloadEvent{Kind: lab.KindLinkDown, A: 2, B: 3}
	res.ReconvergenceTime, err = e.MeasureConvergence(func() error {
		_, err := split.Apply(e)
		return err
	}, time.Hour)
	if err != nil {
		return res, err
	}
	res.ReachableAfterSplit = e.Reachable(2, 3) && e.Reachable(3, 2)
	return res, nil
}
