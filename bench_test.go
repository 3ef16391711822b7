// Benchmarks regenerating the paper's evaluation, one per figure or
// reported experiment (see EXPERIMENTS.md for the mapping), plus
// ablations and micro-benchmarks of the hot paths.
//
// The figure benches run the actual emulation sweeps in virtual time
// through the internal/figures registry and the internal/lab sweep
// engine; each iteration regenerates the full series. Reported
// metrics: median convergence seconds at 0% and 100% SDN deployment
// and the linear-fit slope. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/figures"
	"repro/internal/idr"
	"repro/internal/lab"
	"repro/internal/sdn"
	"repro/internal/sdn/ofp"
	"repro/internal/sim"
)

// buildSweep resolves a registry spec with the benchmark's overrides.
func buildSweep(b *testing.B, name string, o figures.Options) lab.Sweep {
	b.Helper()
	spec, ok := figures.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	sw, err := spec.Build(o)
	if err != nil {
		b.Fatal(err)
	}
	return sw
}

func reportSweep(b *testing.B, res *lab.SweepResult) {
	b.Helper()
	first, last := res.Cells[0].Summary, res.Cells[len(res.Cells)-1].Summary
	b.ReportMetric(first.Median, "s-pure-median")
	b.ReportMetric(last.Median, "s-full-median")
	_, slope, r2, _ := res.Fit()
	b.ReportMetric(slope, "s-per-fraction-slope")
	b.ReportMetric(r2, "fit-r2")
}

// benchConvergence runs one Figure 2-family sweep (16-AS clique,
// SDN 0..100%, 3 seeded runs/point, the paper-faithful MRAI 30s with
// jitter) through the declarative registry.
func benchConvergence(b *testing.B, name string) {
	b.Helper()
	sw := buildSweep(b, name, figures.Options{
		SDNCounts: []int{0, 4, 8, 12, 16},
		Runs:      3,
		BaseSeed:  1,
	})
	for i := 0; i < b.N; i++ {
		res, err := sw.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSweep(b, res)
		}
	}
}

// BenchmarkFig2Withdrawal regenerates Figure 2: withdrawal convergence
// on a 16-AS clique versus SDN deployment fraction.
func BenchmarkFig2Withdrawal(b *testing.B) { benchConvergence(b, "fig2") }

// BenchmarkAnnouncement regenerates the §4 announcement experiment.
func BenchmarkAnnouncement(b *testing.B) { benchConvergence(b, "announce") }

// BenchmarkFailover regenerates the §4 route fail-over experiment
// (dual-homed stub origin losing its primary attachment).
func BenchmarkFailover(b *testing.B) { benchConvergence(b, "failover") }

// BenchmarkMRAISweep is the ablation behind the withdrawal dynamics:
// pure-BGP Tdown scales with the advertisement interval.
func BenchmarkMRAISweep(b *testing.B) {
	sw := buildSweep(b, "mrai", figures.Options{Runs: 2, BaseSeed: 1})
	sw.Axis = lab.MRAIs(5*time.Second, 15*time.Second, 30*time.Second)
	for i := 0; i < b.N; i++ {
		res, err := sw.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Cells[0].Summary.Median, "s-mrai5")
			b.ReportMetric(res.Cells[len(res.Cells)-1].Summary.Median, "s-mrai30")
		}
	}
}

// BenchmarkCliqueSizeSweep: path exploration grows with mesh size.
func BenchmarkCliqueSizeSweep(b *testing.B) {
	sw := buildSweep(b, "size", figures.Options{Runs: 2, BaseSeed: 1})
	for i := 0; i < b.N; i++ {
		res, err := sw.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Cells[0].Summary.Median, "s-n4")
			b.ReportMetric(res.Cells[len(res.Cells)-1].Summary.Median, "s-n16")
		}
	}
}

// BenchmarkDebounceAblation measures the delayed-recomputation design
// insight: recomputation batches versus added convergence latency.
func BenchmarkDebounceAblation(b *testing.B) {
	sw := buildSweep(b, "debounce", figures.Options{Runs: 2, BaseSeed: 1, MRAI: 10 * time.Second})
	sw.Axis = lab.Debounces(-1, time.Second)
	for i := 0; i < b.N; i++ {
		res, err := sw.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Cells[0].MeanRecomputes(), "recomputes-nodebounce")
			b.ReportMetric(res.Cells[1].MeanRecomputes(), "recomputes-1s")
		}
	}
}

// BenchmarkPathExploration counts routing churn (Oliveira et al. [13])
// with and without the cluster.
func BenchmarkPathExploration(b *testing.B) {
	sw := buildSweep(b, "exploration", figures.Options{
		SDNCounts: []int{0, 6}, BaseSeed: 1, MRAI: 10 * time.Second,
	})
	for i := 0; i < b.N; i++ {
		res, err := sw.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Cells[0].MeanBestPathChanges(), "changes-pure")
			b.ReportMetric(res.Cells[1].MeanBestPathChanges(), "changes-sdn")
		}
	}
}

// BenchmarkWorkloadCascade regenerates the workload family's cascade
// figure at benchmark scale: a dual-homed stub's fail-over followed by
// a hijack of the weakened prefix on a seeded internet-like graph —
// the multi-event (per-epoch) datapoint in the BENCH trajectory.
func BenchmarkWorkloadCascade(b *testing.B) {
	topo := lab.TopoSpec{Kind: "internet", N: 16}
	sw := buildSweep(b, "cascade", figures.Options{Topo: &topo, SDNCounts: []int{0, 4}, Runs: 1, BaseSeed: 1})
	for i := 0; i < b.N; i++ {
		res, err := sw.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := res.Cells[0], res.Cells[len(res.Cells)-1]
			b.ReportMetric(first.MeanHijacked(), "hijacked-pure")
			b.ReportMetric(last.MeanHijacked(), "hijacked-sdn")
			b.ReportMetric(first.Epochs[0].Summary.Median, "s-failover-epoch-pure")
			b.ReportMetric(last.Epochs[0].Summary.Median, "s-failover-epoch-sdn")
		}
	}
}

// BenchmarkSubCluster exercises the disjoint sub-cluster design goal.
func BenchmarkSubCluster(b *testing.B) {
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	for i := 0; i < b.N; i++ {
		res, err := figures.SubClusterExperiment(timers, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ReachableAfterSplit {
			b.Fatal("sub-clusters isolated")
		}
		if i == 0 {
			b.ReportMetric(res.ReconvergenceTime.Seconds(), "s-reconvergence")
		}
	}
}

// BenchmarkFlapStability compares the flap-containment mechanisms:
// plain BGP vs RFC 2439 damping vs the controller's debounce.
func BenchmarkFlapStability(b *testing.B) {
	sw := buildSweep(b, "flap", figures.Options{BaseSeed: 1, MRAI: 10 * time.Second})
	for i := 0; i < b.N; i++ {
		res, err := sw.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range res.Cells {
				b.ReportMetric(c.MeanUpdatesSent(), "updates-"+c.Label)
			}
		}
	}
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkWireMarshalUpdate(b *testing.B) {
	u := wire.Update{
		Attrs: wire.PathAttrs{
			Origin:  wire.OriginIGP,
			ASPath:  wire.NewASPath(1, 2, 3, 4, 5),
			NextHop: netip.MustParseAddr("100.64.0.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Marshal(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireUnmarshalUpdate(b *testing.B) {
	u := wire.Update{
		Attrs: wire.PathAttrs{
			Origin:  wire.OriginIGP,
			ASPath:  wire.NewASPath(1, 2, 3, 4, 5),
			NextHop: netip.MustParseAddr("100.64.0.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")},
	}
	frame, err := wire.Marshal(u)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRIBDecision(b *testing.B) {
	tbl := rib.NewTable()
	prefix := netip.MustParsePrefix("10.0.1.0/24")
	for i := 0; i < 16; i++ {
		tbl.SetAdjIn(&rib.Route{
			Prefix:  prefix,
			Peer:    rib.PeerKey(string(rune('a' + i))),
			PeerASN: idr.ASN(i + 2),
			PeerID:  idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(i + 2)})),
			Attrs: wire.PathAttrs{
				ASPath:  wire.NewASPath(idr.ASN(i+2), 1),
				NextHop: netip.AddrFrom4([4]byte{100, 64, 0, byte(i + 2)}),
			},
		})
	}
	update := &rib.Route{
		Prefix: prefix, Peer: "z", PeerASN: 99,
		PeerID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.99")),
		Attrs:  wire.PathAttrs{ASPath: wire.NewASPath(99, 1), NextHop: netip.MustParseAddr("100.64.0.99")},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.SetAdjIn(update)
	}
}

// BenchmarkRIBLookup measures longest-prefix match on a populated
// Loc-RIB — the data-plane forwarding decision behind every probe and
// reachability check. The by-length bucket index makes it O(#distinct
// prefix lengths) instead of O(|Loc-RIB|).
func BenchmarkRIBLookup(b *testing.B) {
	tbl := rib.NewTable()
	for i := 0; i < 256; i++ {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		tbl.SetAdjIn(&rib.Route{
			Prefix:  prefix,
			Peer:    "a",
			PeerASN: 2,
			PeerID:  idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.2")),
			Attrs: wire.PathAttrs{
				ASPath:  wire.NewASPath(2, 1),
				NextHop: netip.MustParseAddr("100.64.0.2"),
			},
		})
	}
	// A handful of more-specifics so multiple length buckets exist.
	for i := 0; i < 16; i++ {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 7, 0}), 24)
		tbl.SetAdjIn(&rib.Route{
			Prefix:  prefix,
			Peer:    "b",
			PeerASN: 3,
			PeerID:  idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.3")),
			Attrs: wire.PathAttrs{
				ASPath:  wire.NewASPath(3, 1),
				NextHop: netip.MustParseAddr("100.64.0.3"),
			},
		})
	}
	addr := netip.MustParseAddr("10.128.7.9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(addr); !ok {
			b.Fatal("lookup miss")
		}
	}
}

// BenchmarkTimerReset measures heap-resident timer churn: a sub-second
// timer repeatedly rescheduled before firing, the delay class (message
// deliveries, processing delays) that stays in the binary heap now
// that second-scale deadlines file into the wheel (BenchmarkTimerWheel
// measures those). Reset re-keys the pending event in place via
// heap.Fix instead of allocating a replacement; the allocs/op recorded
// at -benchtime=1x are entirely kernel + counting-RNG setup.
func BenchmarkTimerReset(b *testing.B) {
	k := sim.NewKernel(1)
	timer := k.AfterFunc(100*time.Millisecond, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timer.Reset(100 * time.Millisecond)
	}
}

// BenchmarkTimerWheel measures the long-delay arm the wheel absorbs:
// hold-timer-style churn (seconds-scale deadlines, re-armed long before
// firing) that the heap used to sift on every reset. The wheel re-keys
// the resident entry in its slot.
func BenchmarkTimerWheel(b *testing.B) {
	k := sim.NewKernel(1)
	timer := k.AfterFunc(90*time.Second, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timer.Reset(90 * time.Second)
	}
}

// BenchmarkKernelBatchDrain measures the batched event drain: many
// same-timestamp events (a converged mesh's synchronized timer
// population) popped once per instant instead of once per event.
func BenchmarkKernelBatchDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := sim.NewKernel(1)
		for j := 0; j < 1024; j++ {
			k.AfterFunc(time.Millisecond, func() {})
		}
		b.StartTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	tbl := sdn.NewFlowTable()
	for i := 0; i < 256; i++ {
		tbl.Upsert(sdn.FlowEntry{
			Match:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
			OutPort: uint32(i),
		})
	}
	addr := netip.MustParseAddr("10.128.7.9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(addr); !ok {
			b.Fatal("lookup miss")
		}
	}
}

func BenchmarkOFPFlowModRoundTrip(b *testing.B) {
	fm := ofp.FlowMod{
		Command: ofp.FlowAdd, Priority: 100,
		Match: netip.MustParsePrefix("10.0.1.0/24"), OutPort: 3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := ofp.Marshal(fm, uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ofp.Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotBenchTrial is the checkpointing workload: a seeded
// 1000-AS internet-like graph at origin-only warm-up scale (the
// figures registry enables OriginOnly at ≥128 ASes) with the
// half-cluster placement the lossy figure uses (K = n/2), withdrawal
// event. Warm-up — session establishment, controller bootstrap and
// announcement convergence — dominates the run here, which is exactly
// what the snapshot cache amortizes.
func snapshotBenchTrial() lab.Trial {
	return lab.Trial{
		Topo:       lab.TopoSpec{Kind: "internet", N: 1000},
		Placement:  lab.Placement{Strategy: lab.PlaceLast, K: 500},
		Event:      lab.Withdrawal,
		Debounce:   100 * time.Millisecond,
		OriginOnly: true,
		Seed:       1,
	}
}

// BenchmarkWarmupCold measures the cold path the snapshot cache
// replaces: establish every session and converge the initial
// announcement on `internet 1000`, then encode the converged state.
func BenchmarkWarmupCold(b *testing.B) {
	trial := snapshotBenchTrial()
	var size int
	for i := 0; i < b.N; i++ {
		raw, err := trial.WarmupSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		size = len(raw)
	}
	b.ReportMetric(float64(size), "snapshot-bytes")
}

// BenchmarkSnapshotFork measures the warm path: rebuild the same
// warmed-up experiment from the encoded snapshot, forking it under a
// fresh run seed. The ratio to BenchmarkWarmupCold is the speedup a
// snapshot-cache hit buys per (run, seed).
func BenchmarkSnapshotFork(b *testing.B) {
	trial := snapshotBenchTrial()
	raw, err := trial.WarmupSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fork := trial
		fork.Seed = int64(i + 1)
		if _, err := fork.RestoreWarmup(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRun measures one full 16-clique withdrawal emulation
// (establishment, announcement convergence, withdrawal convergence) —
// the unit of work behind every figure point.
func BenchmarkSingleRun(b *testing.B) {
	trial := lab.Trial{
		Topo:            lab.TopoSpec{Kind: "clique", N: 16},
		Placement:       lab.Placement{Strategy: lab.PlaceLast, K: 8},
		Event:           lab.Withdrawal,
		Debounce:        100 * time.Millisecond,
		ProcessingDelay: 25 * time.Millisecond,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trial.Seed = int64(i)
		if _, err := trial.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
