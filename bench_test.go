// Benchmarks regenerating the paper's evaluation, one per figure or
// reported experiment (see EXPERIMENTS.md for the mapping), plus
// ablations.
//
// The figure benches run the actual emulation sweeps in virtual time
// through the internal/figures registry and the internal/lab sweep
// engine; each iteration regenerates the full series. They report
// scientific metrics — median convergence seconds at 0% and 100% SDN
// deployment, the linear-fit slope, hijack and churn counts — not
// speed: the record of performance is cmd/labbench. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/scenario"
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
			b.ReportMetric(res.Cells[0].MeanRecomputes, "recomputes-nodebounce")
			b.ReportMetric(res.Cells[1].MeanRecomputes, "recomputes-1s")
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
			b.ReportMetric(res.Cells[0].MeanBestPathChanges, "changes-pure")
			b.ReportMetric(res.Cells[1].MeanBestPathChanges, "changes-sdn")
		}
	}
}

// BenchmarkWorkloadCascade regenerates the workload family's cascade
// figure at benchmark scale: a dual-homed stub's fail-over followed by
// a hijack of the weakened prefix on a seeded internet-like graph —
// the multi-event (per-epoch) datapoint among the figure benches.
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
			b.ReportMetric(first.MeanHijacked, "hijacked-pure")
			b.ReportMetric(last.MeanHijacked, "hijacked-sdn")
			b.ReportMetric(first.Epochs[0].Summary.Median, "s-failover-epoch-pure")
			b.ReportMetric(last.Epochs[0].Summary.Median, "s-failover-epoch-sdn")
		}
	}
}

// BenchmarkSubCluster runs the disjoint sub-cluster script,
// examples/scenarios/subcluster.lab: the members must still reach each
// other after their only intra-cluster link fails.
func BenchmarkSubCluster(b *testing.B) {
	raw, err := os.ReadFile("examples/scenarios/subcluster.lab")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		script, err := scenario.Parse(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		var out strings.Builder
		if err := scenario.NewRunner(&out).Run(script); err != nil {
			b.Fatal(err)
		}
		if strings.Count(out.String(), "delivered=2 loss=0.0%") != 2 {
			b.Fatalf("sub-clusters isolated:\n%s", out.String())
		}
		if i == 0 {
			var s float64
			_, rest, _ := strings.Cut(out.String(), "measure fail-link: convergence ")
			if _, err := fmt.Sscanf(rest, "%gs", &s); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(s, "s-reconvergence")
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
				b.ReportMetric(c.MeanUpdatesSent, "updates-"+c.Label)
			}
		}
	}
}
