package figures

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/lab"
)

// snapshotSmokeSweep shrinks a registry spec to snapshot-test scale:
// a 5-AS clique (16-AS internet graph for the policy family), two axis
// points where the axis allows it. The shrink keeps every spec's
// workload, policy and placement semantics — only the sizes change.
func snapshotSmokeSweep(t *testing.T, spec Spec) lab.Sweep {
	t.Helper()
	o := Options{BaseSeed: 1}
	clique := lab.TopoSpec{Kind: "clique", N: 5}
	inet := lab.TopoSpec{Kind: "internet", N: 16}
	switch spec.Name {
	case "vf", "policyload", "hijack", "cascade":
		o.Topo = &inet
	default:
		o.Topo = &clique
	}
	if spec.Name != "mrai" {
		// The mrai spec sweeps the MRAI itself and rejects the override.
		o.MRAI = 5 * time.Second
	}
	sw, err := spec.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	switch sw.Axis.Kind {
	case lab.AxisSDNCount:
		sw.Axis = lab.SDNCounts(0, 2)
	case lab.AxisMRAI:
		sw.Axis = lab.MRAIs(2*time.Second, 5*time.Second)
	case lab.AxisTopoSize:
		sw.Axis = lab.TopoSizes(4, 5)
	case lab.AxisDebounce:
		sw.Axis = lab.Debounces(-1, time.Second)
	case lab.AxisLoss:
		sw.Axis = lab.Losses(0, 0.05)
	}
	return sw
}

// runFromOwnSnapshot measures the trial from its own restored warm-up
// snapshot: warm up, snapshot, encode, decode, restore, measure.
func runFromOwnSnapshot(t *testing.T, tr lab.Trial) lab.Result {
	t.Helper()
	raw, err := tr.WarmupSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.RunFromSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRegistrySnapshotEquivalence is the checkpoint primitives'
// acceptance check at registry breadth: for every experiment spec,
// shrunk to smoke scale, and every point of its axis, the trial
// measured from its own restored warm-up snapshot must equal the plain
// Trial.Run — so every layer's State/RestoreState pair is held to
// every workload, policy and placement the registry can express.
func TestRegistrySnapshotEquivalence(t *testing.T) {
	for _, spec := range Registry() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			sw := snapshotSmokeSweep(t, spec)
			for ci := 0; ci < sw.Axis.Len(); ci++ {
				tr := sw.Base
				sw.Axis.Apply(&tr, ci)
				tr.Seed, tr.TopoSeed = sw.BaseSeed, sw.BaseSeed
				want, err := tr.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := runFromOwnSnapshot(t, tr); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: run from the restored snapshot diverged:\nplain: %+v\nsnap:  %+v",
						sw.Axis.Name(), sw.Axis.Label(ci), want, got)
				}
			}
		})
	}
}

// TestFig2PaperConfigSnapshotEquivalence reruns the scientific-pin
// configuration's pure-BGP cell from restored snapshots: the three
// pinned per-run durations behind EXPERIMENTS.md's s-pure-median
// 350.284 must come out exactly even though each measurement starts
// from a restored snapshot instead of the warm-up that produced it.
func TestFig2PaperConfigSnapshotEquivalence(t *testing.T) {
	spec, _ := Lookup("fig2")
	sw, err := spec.Build(Options{SDNCounts: []int{0, 4, 8, 12, 16}, Runs: 3, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run, want := range []time.Duration{352108071933, 346901627464, 350283820015} {
		tr := sw.Base
		sw.Axis.Apply(&tr, 0)
		// fig2 seeds per (cell, run); cell 0's axis value is 0.
		tr.Seed, tr.TopoSeed = sw.BaseSeed+int64(run)*1000, sw.BaseSeed
		if got := runFromOwnSnapshot(t, tr).Convergence; got != want {
			t.Fatalf("run %d from a restored snapshot: %v, want the pinned %v", run, got, want)
		}
	}
}
