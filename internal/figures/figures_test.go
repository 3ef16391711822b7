package figures

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lab"
)

// build resolves a registry spec, applies the test's mutation, and
// runs the sweep.
func build(t *testing.T, name string, o Options, mutate func(*lab.Sweep)) *lab.SweepResult {
	t.Helper()
	spec, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	sw, err := spec.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&sw)
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fastOpts shrinks the Figure 2 family so the shape checks run in
// seconds of wall time while keeping the protocol dynamics — the same
// configuration the pre-refactor test suite used, so the pinned
// durations below are the pre-refactor numbers.
func fastOpts() Options {
	topo := lab.TopoSpec{Kind: "clique", N: 8}
	return Options{
		Topo:      &topo,
		SDNCounts: []int{0, 4, 8},
		Runs:      3,
		BaseSeed:  1,
		MRAI:      10 * time.Second,
	}
}

// fastWithdrawal caches the shared fast Figure 2 sweep across tests.
var fastWithdrawal = sync.OnceValues(func() (*lab.SweepResult, error) {
	spec, _ := Lookup("fig2")
	sw, err := spec.Build(fastOpts())
	if err != nil {
		return nil, err
	}
	return sw.Run()
})

func mustFastWithdrawal(t *testing.T) *lab.SweepResult {
	t.Helper()
	res, err := fastWithdrawal()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func pinDurations(t *testing.T, c lab.Cell, want []time.Duration) {
	t.Helper()
	if len(c.Results) != len(want) {
		t.Fatalf("cell %s: %d runs, want %d", c.Label, len(c.Results), len(want))
	}
	for i, r := range c.Results {
		if r.Convergence != want[i] {
			t.Fatalf("cell %s run %d: %v, want the pre-refactor %v (same seeds must reproduce identical results)",
				c.Label, i, r.Convergence, want[i])
		}
	}
}

// TestFig2FastEquivalence pins that the declarative fig2 spec
// reproduces the pre-refactor sweep exactly for the same seeds, and
// keeps the paper's headline shape.
func TestFig2FastEquivalence(t *testing.T) {
	res := mustFastWithdrawal(t)
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Exact per-run durations captured from the pre-refactor
	// figures.RunSweep for the identical configuration and seeds.
	pinDurations(t, res.Cells[0], []time.Duration{49775537696, 45376201332, 45091586428})
	pinDurations(t, res.Cells[1], []time.Duration{19211445023, 18655303436, 19149975571})
	pinDurations(t, res.Cells[2], []time.Duration{100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond})

	// The paper's headline: convergence falls as the SDN fraction
	// grows, and full deployment is dramatically faster.
	med := func(i int) float64 { return res.Cells[i].Summary.Median }
	if !(med(0) > med(1) && med(1) > med(2)) {
		t.Fatalf("medians not decreasing: %.3f %.3f %.3f", med(0), med(1), med(2))
	}
	if med(2)*5 > med(0) {
		t.Fatalf("full SDN should be >5x faster: pure=%.3fs full=%.3fs", med(0), med(2))
	}
	if _, slope, _, ok := res.Fit(); !ok || slope >= 0 {
		t.Fatalf("slope = %v (ok=%v), want negative", slope, ok)
	}
}

// TestFig2PaperConfigEquivalence pins the benchmark configuration
// (16-AS clique, paper timers, seeds 1..) to the EXPERIMENTS.md
// scientific metrics: s-pure-median 350.3, slope -369.8, r² 0.9885.
func TestFig2PaperConfigEquivalence(t *testing.T) {
	res := build(t, "fig2", Options{SDNCounts: []int{0, 4, 8, 12, 16}, Runs: 3, BaseSeed: 1}, nil)
	pinDurations(t, res.Cells[0], []time.Duration{352108071933, 346901627464, 350283820015})
	pinDurations(t, res.Cells[4], []time.Duration{100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond})
	a, b, r2, ok := res.Fit()
	if !ok {
		t.Fatal("fit unavailable")
	}
	for _, c := range []struct {
		name string
		got  float64
		want string
	}{
		{"s-pure-median", res.Cells[0].Summary.Median, "350.284"},
		{"intercept", a, "358.154"},
		{"slope", b, "-369.785"},
		{"r2", r2, "0.989"},
	} {
		if got := fmt.Sprintf("%.3f", c.got); got != c.want {
			t.Fatalf("%s = %s, want the pre-refactor %s", c.name, got, c.want)
		}
	}
}

// TestFig2PolicyPermitAllEquivalence pins that an explicit
// -policy permit-all is the identity: the same paper configuration
// with the permit-all template spelled out reproduces the pre-policy
// fig2 numbers exactly — s-pure-median 350.284, slope −369.785,
// r² 0.989 — so wiring policies through the evaluation API changed
// nothing for policy-free trials.
func TestFig2PolicyPermitAllEquivalence(t *testing.T) {
	opts := Options{
		SDNCounts: []int{0, 4, 8, 12, 16},
		Runs:      3,
		BaseSeed:  1,
		Policy:    lab.PolicySpec{Kind: lab.PolicyPermitAll},
	}
	res := build(t, "fig2", opts, nil)
	if got := res.Policy.String(); got != lab.PolicyPermitAll {
		t.Fatalf("result policy echo = %q, want %q", got, lab.PolicyPermitAll)
	}
	pinDurations(t, res.Cells[0], []time.Duration{352108071933, 346901627464, 350283820015})
	pinDurations(t, res.Cells[4], []time.Duration{100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond})
	a, b, r2, ok := res.Fit()
	if !ok {
		t.Fatal("fit unavailable")
	}
	for _, c := range []struct {
		name string
		got  float64
		want string
	}{
		{"s-pure-median", res.Cells[0].Summary.Median, "350.284"},
		{"intercept", a, "358.154"},
		{"slope", b, "-369.785"},
		{"r2", r2, "0.989"},
	} {
		if got := fmt.Sprintf("%.3f", c.got); got != c.want {
			t.Fatalf("%s = %s under explicit permit-all, want the policy-free %s", c.name, got, c.want)
		}
	}
}

func TestAnnouncementSmallerEffect(t *testing.T) {
	w := mustFastWithdrawal(t)
	a := build(t, "announce", fastOpts(), nil)
	// Pre-refactor pins for the same seeds.
	pinDurations(t, a.Cells[0], []time.Duration{187854442, 212627597, 201954950})
	// §4: announcement does not show the (large) linear reduction.
	// Compare absolute savings between 0% and 100% deployment.
	wSave := w.Cells[0].Summary.Median - w.Cells[len(w.Cells)-1].Summary.Median
	aSave := a.Cells[0].Summary.Median - a.Cells[len(a.Cells)-1].Summary.Median
	if aSave >= wSave {
		t.Fatalf("announcement saving (%.3fs) should be smaller than withdrawal saving (%.3fs)", aSave, wSave)
	}
	// Announcements converge fast in absolute terms (flooding, not
	// path exploration).
	if a.Cells[0].Summary.Median > w.Cells[0].Summary.Median/4 {
		t.Fatalf("announcement (%.3fs) should be much faster than withdrawal (%.3fs)",
			a.Cells[0].Summary.Median, w.Cells[0].Summary.Median)
	}
}

func TestFailoverSmallerEffect(t *testing.T) {
	w := mustFastWithdrawal(t)
	f := build(t, "failover", fastOpts(), nil)
	pinDurations(t, f.Cells[0], []time.Duration{205762468, 195346724, 183601288})
	wSave := w.Cells[0].Summary.Median - w.Cells[len(w.Cells)-1].Summary.Median
	fSave := f.Cells[0].Summary.Median - f.Cells[len(f.Cells)-1].Summary.Median
	if fSave >= wSave {
		t.Fatalf("failover saving (%.3fs) should be smaller than withdrawal saving (%.3fs)", fSave, wSave)
	}
	// After the fail-over the prefix must stay reachable via the
	// backup attachment — the uniform Result exposes the check.
	for _, c := range f.Cells {
		if !c.AllReachable() {
			t.Fatalf("cell %s: origin unreachable after fail-over", c.Label)
		}
	}
}

func TestMRAIAblationScales(t *testing.T) {
	topo := lab.TopoSpec{Kind: "clique", N: 6}
	res := build(t, "mrai", Options{Topo: &topo, Runs: 2, BaseSeed: 3}, func(sw *lab.Sweep) {
		sw.Axis = lab.MRAIs(5*time.Second, 20*time.Second)
	})
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Pre-refactor medians: 16.621s and 68.459s.
	for i, want := range []string{"16.621", "68.459"} {
		if got := fmt.Sprintf("%.3f", res.Cells[i].Summary.Median); got != want {
			t.Fatalf("cell %d median = %s, want the pre-refactor %s", i, got, want)
		}
	}
	// Tdown grows with MRAI.
	if res.Cells[1].Summary.Median <= res.Cells[0].Summary.Median {
		t.Fatalf("larger MRAI should converge slower: %v vs %v",
			res.Cells[0].Summary.Median, res.Cells[1].Summary.Median)
	}
}

func TestSizeAblationScales(t *testing.T) {
	res := build(t, "size", Options{Runs: 2, BaseSeed: 5, MRAI: 5 * time.Second}, func(sw *lab.Sweep) {
		sw.Axis = lab.TopoSizes(4, 10)
	})
	// Pre-refactor medians: 8.756s and 34.909s.
	for i, want := range []string{"8.756", "34.909"} {
		if got := fmt.Sprintf("%.3f", res.Cells[i].Summary.Median); got != want {
			t.Fatalf("cell %d median = %s, want the pre-refactor %s", i, got, want)
		}
	}
	if res.Cells[1].Summary.Median <= res.Cells[0].Summary.Median {
		t.Fatalf("larger clique should converge slower: %v vs %v",
			res.Cells[0].Summary.Median, res.Cells[1].Summary.Median)
	}
}

func TestDebounceTradeoff(t *testing.T) {
	topo := lab.TopoSpec{Kind: "clique", N: 6}
	placement := lab.Placement{Strategy: lab.PlaceLast, K: 3}
	res := build(t, "debounce",
		Options{Topo: &topo, Placement: &placement, Runs: 2, BaseSeed: 7, MRAI: 5 * time.Second},
		func(sw *lab.Sweep) { sw.Axis = lab.Debounces(-1, 2*time.Second) })
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Pre-refactor recomputation means: 15 without debounce, 2 with.
	if got := res.Cells[0].MeanRecomputes; got != 15 {
		t.Fatalf("no-debounce recomputes = %v, want the pre-refactor 15", got)
	}
	if got := res.Cells[1].MeanRecomputes; got != 2 {
		t.Fatalf("2s-debounce recomputes = %v, want the pre-refactor 2", got)
	}
	// The debounce rate-limits controller work.
	if res.Cells[1].MeanRecomputes >= res.Cells[0].MeanRecomputes {
		t.Fatalf("debounce should reduce recomputes: %v vs %v",
			res.Cells[0].MeanRecomputes, res.Cells[1].MeanRecomputes)
	}
}

func TestExplorationDropsWithSDN(t *testing.T) {
	res := build(t, "exploration",
		Options{SDNCounts: []int{0, 6}, BaseSeed: 11, MRAI: 5 * time.Second}, nil)
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Pre-refactor pins: 94/8 best-path changes, 222/20 updates.
	for i, want := range []struct{ changes, updates float64 }{{94, 222}, {8, 20}} {
		if got := res.Cells[i].MeanBestPathChanges; got != want.changes {
			t.Fatalf("cell %d best changes = %v, want the pre-refactor %v", i, got, want.changes)
		}
		if got := res.Cells[i].MeanUpdatesSent; got != want.updates {
			t.Fatalf("cell %d updates = %v, want the pre-refactor %v", i, got, want.updates)
		}
	}
	if res.Cells[1].MeanBestPathChanges >= res.Cells[0].MeanBestPathChanges {
		t.Fatal("SDN should reduce path exploration")
	}
	if res.Cells[1].MeanUpdatesSent >= res.Cells[0].MeanUpdatesSent {
		t.Fatal("SDN should reduce update count")
	}
}

func TestFlapStabilityAblation(t *testing.T) {
	topo := lab.TopoSpec{Kind: "clique", N: 6}
	res := build(t, "flap", Options{Topo: &topo, BaseSeed: 13, MRAI: 5 * time.Second},
		func(sw *lab.Sweep) {
			sw.Base.Workload = lab.FlapWorkload(4, 10*time.Second)
			sw.Base.Drain = 10 * time.Minute
		})
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	byMode := map[string]lab.Cell{}
	for _, c := range res.Cells {
		byMode[c.Label] = c
	}
	// Pre-refactor update counts for the same seeds.
	for mode, want := range map[string]float64{"bgp": 277, "damping": 211, "sdn": 134} {
		if got := byMode[mode].MeanUpdatesSent; got != want {
			t.Fatalf("%s updates = %v, want the pre-refactor %v", mode, got, want)
		}
	}
	// Both stability mechanisms must beat plain BGP on update load,
	// and the network must be usable once the origin stabilises.
	for _, mode := range []string{"damping", "sdn"} {
		if byMode[mode].MeanUpdatesSent >= byMode["bgp"].MeanUpdatesSent {
			t.Fatalf("%s should reduce updates below plain BGP", mode)
		}
	}
	for mode, c := range byMode {
		if !c.AllReachable() {
			t.Fatalf("%s: prefix unreachable after the storm", mode)
		}
	}
}

func TestRegistry(t *testing.T) {
	want := []string{"fig2", "announce", "failover", "vf", "policyload", "hijack", "maint", "cascade", "churn", "mrai", "size", "debounce", "exploration", "flap", "ctrlfail", "lossy"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry names = %v, want %v", got, want)
		}
		if _, ok := Lookup(want[i]); !ok {
			t.Fatalf("Lookup(%q) failed", want[i])
		}
	}
	if _, err := Run("warp-drive", Options{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestPolicyFamilySpecs pins the declarative shape of the policy
// registry entries without running their (internet-scale) sweeps.
func TestPolicyFamilySpecs(t *testing.T) {
	vf, _ := Lookup("vf")
	sw, err := vf.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Base.Policy.Kind != lab.PolicyGaoRexford {
		t.Fatalf("vf default policy = %q, want gao-rexford", sw.Base.Policy.Kind)
	}
	if sw.Base.Topo.Kind != "internet" {
		t.Fatalf("vf default topology = %q, want internet", sw.Base.Topo.Kind)
	}
	if sw.Axis.Kind != lab.AxisSDNCount {
		t.Fatalf("vf axis = %v, want sdn-count", sw.Axis.Kind)
	}

	pl, _ := Lookup("policyload")
	sw, err = pl.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Axis.Kind != lab.AxisPolicy || sw.Axis.Len() != 3 {
		t.Fatalf("policyload axis = %v len %d, want a 3-value policy axis", sw.Axis.Kind, sw.Axis.Len())
	}
	if _, err := pl.Build(Options{Policy: lab.PolicySpec{Kind: lab.PolicyGaoRexford}}); err == nil {
		t.Fatal("policyload must reject -policy (it sweeps the policy itself)")
	}
	if _, err := pl.Build(Options{SDNCounts: []int{1}}); err == nil {
		t.Fatal("policyload must reject an SDN-count list")
	}

	hj, _ := Lookup("hijack")
	sw, err = hj.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Base.Event != lab.Hijack {
		t.Fatalf("hijack event = %v", sw.Base.Event)
	}
	// The default axis must stop short of full deployment: a hijack
	// needs a legacy attacker.
	last := sw.Axis.Ints[len(sw.Axis.Ints)-1]
	if last >= sw.Base.Topo.Nodes() {
		t.Fatalf("hijack default axis reaches full deployment (K=%d of %d)", last, sw.Base.Topo.Nodes())
	}
}

// TestWorkloadFamilySpecs pins the declarative shape of the workload
// registry entries and runs a shrunk maintenance-window sweep end to
// end: per-epoch aggregates must flow through to the cells and the
// network must end reachable after the re-announce.
func TestWorkloadFamilySpecs(t *testing.T) {
	maint, ok := Lookup("maint")
	if !ok {
		t.Fatal("maint missing from the registry")
	}
	topo := lab.TopoSpec{Kind: "clique", N: 6}
	sw, err := maint.Build(Options{Topo: &topo, SDNCounts: []int{0, 3}, Runs: 2, BaseSeed: 1, MRAI: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Base.Workload) != 2 || sw.Base.Workload[0].Kind != lab.KindWithdrawal || sw.Base.Workload[1].Kind != lab.KindAnnouncement {
		t.Fatalf("maint workload = %v", sw.Base.Workload)
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if len(c.Epochs) != 2 {
			t.Fatalf("cell %s: epoch aggregates = %d, want 2", c.Label, len(c.Epochs))
		}
		if !c.AllReachable() {
			t.Fatalf("cell %s: origin unreachable after the maintenance window", c.Label)
		}
		if c.Epochs[1].Summary.Median <= 0 {
			t.Fatalf("cell %s: no re-convergence measured", c.Label)
		}
	}
	// The maintenance window's costly phase is the withdrawal (path
	// exploration); the re-announce floods quickly — and
	// centralization shrinks the withdrawal epoch.
	if res.Cells[0].Epochs[0].Summary.Median < 4*res.Cells[0].Epochs[1].Summary.Median {
		t.Fatalf("withdraw epoch (%.3f) should dwarf the re-announce epoch (%.3f)",
			res.Cells[0].Epochs[0].Summary.Median, res.Cells[0].Epochs[1].Summary.Median)
	}
	if res.Cells[1].Epochs[0].Summary.Median >= res.Cells[0].Epochs[0].Summary.Median {
		t.Fatalf("SDN withdraw epoch not faster: %.3f vs %.3f",
			res.Cells[1].Epochs[0].Summary.Median, res.Cells[0].Epochs[0].Summary.Median)
	}

	cascade, _ := Lookup("cascade")
	sw, err = cascade.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Base.Workload) != 2 || sw.Base.Workload[0].Kind != lab.KindFailover || sw.Base.Workload[1].Kind != lab.KindHijack {
		t.Fatalf("cascade workload = %v", sw.Base.Workload)
	}
	if sw.Base.Policy.Kind != lab.PolicyGaoRexford || sw.Base.Topo.Kind != "internet" {
		t.Fatalf("cascade base = policy %q topo %q", sw.Base.Policy.Kind, sw.Base.Topo.Kind)
	}
	last := sw.Axis.Ints[len(sw.Axis.Ints)-1]
	if last >= sw.Base.Topo.Nodes() {
		t.Fatalf("cascade default axis reaches full deployment (K=%d of %d)", last, sw.Base.Topo.Nodes())
	}

	churn, _ := Lookup("churn")
	sw, err = churn.Build(Options{BaseSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Base.Workload) != 6 {
		t.Fatalf("churn workload length = %d, want 6", len(sw.Base.Workload))
	}
	sw2, err := churn.Build(Options{BaseSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Base.Workload.String() != sw2.Base.Workload.String() {
		t.Fatal("churn schedule must be deterministic in the base seed")
	}

	// The workload figures fix their schedules; only the Figure 2
	// family honors -workload.
	custom := lab.Workload{{Kind: lab.KindWithdrawal}}
	for _, name := range []string{"maint", "cascade", "churn", "vf", "hijack", "debounce", "exploration", "mrai", "size", "flap", "policyload", "ctrlfail", "lossy"} {
		spec, _ := Lookup(name)
		if _, err := spec.Build(Options{Workload: custom}); err == nil {
			t.Fatalf("%s: -workload override should error", name)
		}
	}
	fig2, _ := Lookup("fig2")
	sw, err = fig2.Build(Options{Workload: custom})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Base.Workload) != 1 {
		t.Fatalf("fig2 must honor -workload, got %v", sw.Base.Workload)
	}
}

// TestChaosFamilySpecs pins the declarative shape of the chaos
// registry entries and runs a shrunk controller-crash sweep end to
// end: the K=0 baseline must treat the crash and recovery as no-ops
// while the clustered cells pay (and survive) the degraded window.
func TestChaosFamilySpecs(t *testing.T) {
	cf, ok := Lookup("ctrlfail")
	if !ok {
		t.Fatal("ctrlfail missing from the registry")
	}
	sw, err := cf.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Base.Workload) != 4 ||
		sw.Base.Workload[0].Kind != lab.KindCtrlDown ||
		sw.Base.Workload[1].Kind != lab.KindWithdrawal ||
		sw.Base.Workload[2].Kind != lab.KindCtrlUp ||
		sw.Base.Workload[3].Kind != lab.KindAnnouncement {
		t.Fatalf("ctrlfail workload = %v", sw.Base.Workload)
	}

	lo, ok := Lookup("lossy")
	if !ok {
		t.Fatal("lossy missing from the registry")
	}
	sw, err = lo.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Axis.Kind != lab.AxisLoss || sw.Axis.Len() < 3 {
		t.Fatalf("lossy axis = %v len %d, want a loss axis", sw.Axis.Kind, sw.Axis.Len())
	}
	if sw.Axis.Floats[0] != 0 {
		t.Fatalf("lossy axis must anchor at loss 0, got %v", sw.Axis.Floats)
	}
	if k, n := sw.Base.Placement.K, sw.Base.Topo.Nodes(); k != n/2 {
		t.Fatalf("lossy placement K = %d, want half of %d", k, n)
	}
	if _, err := lo.Build(Options{SDNCounts: []int{1}}); err == nil {
		t.Fatal("lossy must reject an SDN-count list (the axis is loss)")
	}

	// A shrunk crash sweep end to end: at K=0 the crash/recover epochs
	// are no-ops, at K>0 the crashed cluster pays the pure-BGP price
	// for the headless withdrawal.
	topo := lab.TopoSpec{Kind: "clique", N: 6}
	res := build(t, "ctrlfail",
		Options{Topo: &topo, SDNCounts: []int{0, 3}, Runs: 2, BaseSeed: 1, MRAI: 10 * time.Second}, nil)
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.Epochs) != 4 {
			t.Fatalf("cell %s: epoch aggregates = %d, want 4", c.Label, len(c.Epochs))
		}
		if !c.AllReachable() {
			t.Fatalf("cell %s: network unreachable after recovery", c.Label)
		}
	}
	// At K=0 the crash and recovery are no-ops: no cluster exists, so
	// those epochs must measure zero routing activity.
	for _, i := range []int{0, 2} {
		if got := res.Cells[0].Epochs[i].Summary.Median; got != 0 {
			t.Fatalf("K=0 epoch %d median = %v, want 0 (crash/recover must be no-ops without a cluster)", i, got)
		}
	}
	// The headless withdrawal converges like pure BGP in both cells:
	// the crash erases the centralization advantage.
	w0 := res.Cells[0].Epochs[1].Summary.Median
	w3 := res.Cells[1].Epochs[1].Summary.Median
	if w0 <= 0 || w3 <= 0 {
		t.Fatalf("withdrawal epochs not measured: %v, %v", w0, w3)
	}
	if w3 < w0/2 {
		t.Fatalf("crashed cluster converged too fast (%.3fs vs pure %.3fs): the crash should erase the SDN advantage", w3, w0)
	}
}

func TestRegistryValidatesSDNCounts(t *testing.T) {
	if _, err := Run("fig2", Options{SDNCounts: []int{99}, Runs: 1}); err == nil {
		t.Fatal("out-of-range SDN count should error before running")
	}
}

// TestDebounceDisabledExpressible pins the satellite fix: a disabled
// debounce (negative) flows from Options through the spec into the
// trial, where the shared zero/negative convention applies.
func TestDebounceDisabledExpressible(t *testing.T) {
	off := time.Duration(-1)
	spec, _ := Lookup("fig2")
	sw, err := spec.Build(Options{Debounce: &off})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Base.Debounce >= 0 {
		t.Fatalf("Base.Debounce = %v, want negative (disabled)", sw.Base.Debounce)
	}
	// And the default stays the paper sweeps' 100ms.
	sw, err = spec.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Base.Debounce != 100*time.Millisecond {
		t.Fatalf("default Base.Debounce = %v, want 100ms", sw.Base.Debounce)
	}
}

// TestSpecsRejectInapplicableOverrides pins that overrides a spec
// cannot honor error out instead of being silently dropped.
func TestSpecsRejectInapplicableOverrides(t *testing.T) {
	p := lab.Placement{Strategy: lab.PlaceLast, K: 2}
	for _, name := range []string{"mrai", "size", "flap"} {
		spec, _ := Lookup(name)
		if _, err := spec.Build(Options{Placement: &p}); err == nil {
			t.Fatalf("%s: placement override should error", name)
		}
		if _, err := spec.Build(Options{SDNCounts: []int{0, 2}}); err == nil {
			t.Fatalf("%s: SDN-count override should error", name)
		}
	}
	spec, _ := Lookup("debounce")
	if _, err := spec.Build(Options{SDNCounts: []int{0, 2}}); err == nil {
		t.Fatal("debounce: SDN-count override should error")
	}
	if _, err := spec.Build(Options{Placement: &p}); err != nil {
		t.Fatalf("debounce honors placement, got error: %v", err)
	}
	// Axis-parameter overrides on the axis itself are rejected too.
	mraiSpec, _ := Lookup("mrai")
	if _, err := mraiSpec.Build(Options{MRAI: time.Second}); err == nil {
		t.Fatal("mrai: -mrai override should error")
	}
	off := time.Duration(-1)
	if _, err := spec.Build(Options{Debounce: &off}); err == nil {
		t.Fatal("debounce: -debounce override should error")
	}
	flapSpec, _ := Lookup("flap")
	if _, err := flapSpec.Build(Options{Debounce: &off}); err == nil {
		t.Fatal("flap: -debounce override should error")
	}
	none := lab.Placement{Strategy: lab.PlaceNone}
	if _, err := spec.Build(Options{Placement: &none}); err == nil {
		t.Fatal("debounce: -placement none should error (no controller to debounce)")
	}
	// A bare strategy override keeps the spec's half-network cluster
	// size instead of silently selecting zero members.
	bare := lab.Placement{Strategy: lab.PlaceDegree}
	sw, err := spec.Build(Options{Placement: &bare})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Base.Placement.Strategy != lab.PlaceDegree || sw.Base.Placement.K != 4 {
		t.Fatalf("bare degree placement on debounce = %+v, want K=4", sw.Base.Placement)
	}
	// The size axis over a grid would mislabel widths as AS counts.
	grid := lab.TopoSpec{Kind: "grid", N: 2, M: 2}
	if _, err := Run("size", Options{Topo: &grid, Runs: 1}); err == nil {
		t.Fatal("size: grid topology should be rejected")
	}
}

// TestOverridesRuns pins the runs override: zero keeps the spec
// default, a positive count replaces it, and a negative one is an
// error instead of silently running the default.
func TestOverridesRuns(t *testing.T) {
	for _, c := range []struct {
		runs int
		want int // 0 = error
	}{
		{runs: 0, want: 10},
		{runs: 2, want: 2},
		{runs: -1},
		{runs: -3},
	} {
		sw, err := Resolve("fig2", Overrides{Runs: c.runs, Seed: 1})
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("runs %d: resolved to %d runs, want an error", c.runs, sw.Runs)
		case c.want != 0 && err != nil:
			t.Errorf("runs %d: %v", c.runs, err)
		case c.want != 0 && sw.Runs != c.want:
			t.Errorf("runs %d: resolved to %d runs, want %d", c.runs, sw.Runs, c.want)
		}
	}
}

// TestOverridesLoss pins that the loss override is checked before a
// sweep runs: NaN compares false against both bounds and once ran a
// silently lossless sweep.
func TestOverridesLoss(t *testing.T) {
	for _, c := range []struct {
		loss float64
		ok   bool
	}{
		{0, true},
		{0.05, true},
		{1, true},
		{-0.1, false},
		{1.5, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		_, err := Resolve("fig2", Overrides{Loss: c.loss, Seed: 1})
		if (err == nil) != c.ok {
			t.Errorf("loss %v: err = %v, want ok=%v", c.loss, err, c.ok)
		}
	}
}

// TestBindOverrides pins the one override flag set: a flag line parsed
// through Bind resolves to the same canonical spec as the equivalent
// hand-built Overrides, unset flags keep the defaults, and values that
// would silently run something else are refused before anything runs.
func TestBindOverrides(t *testing.T) {
	parse := func(args ...string) (Overrides, error) {
		var ov Overrides
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		ov.Bind(fs)
		return ov, fs.Parse(args)
	}
	canonical := func(ov Overrides) []byte {
		t.Helper()
		sw, err := Resolve("fig2", ov)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sw.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	got, err := parse("-topology", "clique 6", "-placement", "degree", "-policy", "gao-rexford",
		"-sdn-counts", "0, 3,6", "-workload", "at 0s withdraw; at 3m announce", "-runs", "2", "-seed", "7",
		"-mrai", "5s", "-debounce", "0", "-loss", "0.05", "-delay", "20ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Overrides{Topology: "clique 6", Placement: "degree", Policy: "gao-rexford",
		SDNCounts: []int{0, 3, 6}, Workload: "at 0s withdraw; at 3m announce", Runs: 2, Seed: 7,
		MRAI: "5s", Debounce: "0", Loss: 0.05, Delay: "20ms"}
	if a, b := canonical(got), canonical(want); !bytes.Equal(a, b) {
		t.Fatalf("flag line resolves to\n%s\nhand-built overrides to\n%s", a, b)
	}
	if unset, err := parse(); err != nil || !reflect.DeepEqual(unset, Overrides{Seed: 1}) {
		t.Fatalf("no flags: %+v, %v; want only the default seed 1", unset, err)
	}

	for _, c := range []struct {
		args []string
		want string // a substring of the error
	}{
		{[]string{"-sdn-counts", ","}, "no cluster sizes"},
		{[]string{"-sdn-counts", "0,x"}, `bad entry "x"`},
		{[]string{"-mrai", "0"}, "0 would mean the default 30s"},
		{[]string{"-mrai", "-5s"}, "not positive"},
		{[]string{"-delay", "-1ms"}, "negative"},
		{[]string{"-jitter", "2ms"}, "flag provided but not defined: -jitter"},
	} {
		ov, err := parse(c.args...)
		if err == nil {
			_, err = Resolve("fig2", ov)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}
