package main

import (
	"time"

	"repro/internal/lab"
)

// workload is one named set of inputs. Ops are closed-loop: one
// client, one op at a time. Op i's inputs derive from the run seed S
// alone (Trial.Seed = S+i); index -1 is the warm-up op set-up runs.
// Topologies are fixed per workload (TopoSeed 1), the way lab.Sweep
// pins one graph per sweep: across graph seeds an `internet N` op
// varies by 20-30%, which would drown the bounds.
type workload interface {
	// setUp builds what the ops share and runs the warm-up op. With a
	// tracer it goes through the layers' public calls and records
	// spans; without one it calls what a user calls.
	setUp(tr *tracer) error
	// op runs op i exactly as a user would, checks its output and
	// returns the canonical record of that output.
	op(i int) ([]byte, error)
	// tracedOp runs op i as the same sequence of public calls made
	// from here, with a span around each, and returns the same record.
	tracedOp(i int, tr *tracer) ([]byte, error)
	// finish runs the once-per-run untimed output checks; with a
	// tracer it also runs the workload's direct legs and fills the
	// per-layer numbers only this workload can know.
	finish(tr *tracer, m *metricSet) error
	// close releases what setUp built.
	close() error
}

// spec names a workload and builds it for a run seed.
type spec struct {
	name string
	why  string
	// minOps ops always run; sim_digest and the traced pass cover
	// exactly these, so both compare exactly at any machine speed.
	minOps int
	build  func(seed int64) workload
}

// sizes are the topology and sweep sizes behind the workload names.
// Tests shrink them through small; the code paths are the same.
type sizes struct {
	clique    int
	pure      int
	gr        int
	fork      int
	sdnCounts []int
	runs      int
	// cliqueOps and otherOps are the minimum op counts.
	cliqueOps, otherOps int
	// tmp is the directory run-time files go under.
	tmp string
}

// full is what BENCHMARK.json's workload names promise. They are
// sized so a run (three set-ups plus ten seconds of ops) stays near
// twenty seconds on the 2-vCPU reference host.
var full = sizes{
	clique: 16, pure: 160, gr: 1000, fork: 500,
	sdnCounts: []int{0, 4, 8, 12, 16}, runs: 3,
	cliqueOps: 20, otherOps: 5,
	// Inside the checkout, where the wrapper script builds and
	// .gitignore looks.
	tmp: ".bench_build",
}

// small keeps every workload under a second for the tier-1 test,
// which sets tmp.
var small = sizes{
	clique: 8, pure: 40, gr: 60, fork: 60,
	sdnCounts: []int{0, 4, 8}, runs: 1,
	cliqueOps: 2, otherOps: 2,
}

// debounce is the controller recomputation window every workload uses.
const debounce = 100 * time.Millisecond

// workloads lists the six workloads at the given sizes.
func workloads(sz sizes) []spec {
	clique := lab.Trial{
		Topo:            lab.TopoSpec{Kind: "clique", N: sz.clique},
		Event:           lab.Withdrawal,
		Debounce:        debounce,
		ProcessingDelay: 25 * time.Millisecond,
	}
	half := clique
	half.Placement = lab.Placement{Strategy: lab.PlaceLast, K: sz.clique / 2}
	internet := func(n int) lab.Trial {
		return lab.Trial{
			Topo:       lab.TopoSpec{Kind: "internet", N: n},
			Event:      lab.Withdrawal,
			Debounce:   debounce,
			OriginOnly: true,
			TopoSeed:   1,
		}
	}
	gr := internet(sz.gr)
	gr.Policy = lab.PolicySpec{Kind: "gao-rexford"}
	fork := internet(sz.fork)
	fork.Placement = lab.Placement{Strategy: lab.PlaceLast, K: sz.fork / 2}
	return []spec{
		{
			name:   "clique16-pure",
			why:    "the paper's Fig. 2 unit at 0% SDN: bgp/rib/wire/netem/sim do all the work, the controller path none",
			minOps: sz.cliqueOps,
			build:  func(seed int64) workload { return &trialWorkload{base: clique, seed: seed} },
		},
		{
			name:   "clique16-half",
			why:    "the same unit at K=8: core/sdn/ofp/speaker carry a third of the allocations, the legacy share shrinks",
			minOps: sz.cliqueOps,
			build:  func(seed int64) workload { return &trialWorkload{base: half, seed: seed} },
		},
		{
			name:   "internet160-pure",
			why:    "permit-all path exploration on an internet-like graph: over 90% of the op is the measure phase, memory follows retained state",
			minOps: sz.otherOps,
			build:  func(seed int64) workload { return &trialWorkload{base: internet(sz.pure), seed: seed} },
		},
		{
			name:   "internet1000-gr",
			why:    "valley-free policy leaves little exploration, so build, policy, experiment.New and session timers on 1000 routers dominate",
			minOps: sz.otherOps,
			build:  func(seed int64) workload { return &trialWorkload{base: gr, seed: seed} },
		},
		{
			name:   "fork-internet500",
			why:    "snapshot codec read side: decode and restore a warmed K=250 experiment under a fresh seed; no kernel event runs",
			minOps: sz.otherOps,
			build:  func(seed int64) workload { return &forkWorkload{base: fork, seed: seed} },
		},
		{
			name:   "labd-fig2",
			why:    "what a service user pays: a 15-run fig2 sweep through labd over loopback, artifact store writes, then sealed hits",
			minOps: sz.otherOps,
			build:  func(seed int64) workload { return &labdWorkload{sz: sz, seed: seed} },
		},
	}
}
