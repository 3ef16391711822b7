package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/plot"
	"repro/internal/stats"
)

// baseSweep is the shared small-but-real sweep the engine tests run.
func baseSweep() Sweep {
	timers := bgp.DefaultTimers()
	timers.MRAI = 10 * time.Second
	return Sweep{
		Name: "fig2",
		Base: Trial{
			Topo:            TopoSpec{Kind: "clique", N: 6},
			Event:           Withdrawal,
			Timers:          timers,
			Debounce:        100 * time.Millisecond,
			ProcessingDelay: 25 * time.Millisecond,
		},
		Axis:       SDNCounts(0, 3, 6),
		Runs:       3,
		BaseSeed:   21,
		SeedPolicy: SeedCellRun,
	}
}

// TestSweepDeterministicAcrossParallelism is the regression guard for
// the parallel sweep engine: the same Sweep must produce identical
// cells — and byte-identical encoded output in every format — whether
// the runs execute sequentially or across 8 workers.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	seq := baseSweep()
	seq.Parallelism = 1
	seqRes, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	par := baseSweep()
	par.Parallelism = 8
	parRes, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("results differ:\nsequential: %+v\nparallel:   %+v", seqRes, parRes)
	}
	for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
		var a, b strings.Builder
		if err := Write(&a, f, seqRes); err != nil {
			t.Fatal(err)
		}
		if err := Write(&b, f, parRes); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s output differs:\n--- sequential ---\n%s--- parallel ---\n%s", f, a.String(), b.String())
		}
	}
	// The sweep's own shape: medians fall as the SDN fraction grows.
	med := func(i int) float64 { return seqRes.Cells[i].Summary.Median }
	if !(med(0) > med(1) && med(1) > med(2)) {
		t.Fatalf("medians not decreasing: %.3f %.3f %.3f", med(0), med(1), med(2))
	}
}

// TestSweepErrorDeterministic pins that a failing cell reports the
// same error at any parallelism.
func TestSweepErrorDeterministic(t *testing.T) {
	mk := func(p int) error {
		sw := baseSweep()
		sw.Axis = SDNCounts(0, 99)
		sw.Parallelism = p
		_, err := sw.Run()
		return err
	}
	errSeq, errPar := mk(1), mk(8)
	if errSeq == nil || errPar == nil {
		t.Fatal("out-of-range SDN count should error at any parallelism")
	}
	if errSeq.Error() != errPar.Error() {
		t.Fatalf("error text differs: %q vs %q", errSeq, errPar)
	}
}

// TestSweepNonCliqueTopology is the acceptance check that the unified
// engine runs end-to-end on a non-clique generator with structured
// output: a grid sweep whose JSON round-trips.
func TestSweepNonCliqueTopology(t *testing.T) {
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	sw := Sweep{
		Name: "fig2",
		Base: Trial{
			Topo:     TopoSpec{Kind: "grid", N: 2, M: 3},
			Event:    Withdrawal,
			Timers:   timers,
			Debounce: 100 * time.Millisecond,
		},
		Axis:       SDNCounts(0, 3),
		Runs:       1,
		BaseSeed:   1,
		SeedPolicy: SeedCellRun,
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Results[0].Convergence <= 0 {
			t.Fatalf("cell %s: no convergence measured", c.Label)
		}
		if c.Results[0].UpdatesSent == 0 {
			t.Fatalf("cell %s: no update load measured", c.Label)
		}
	}
	// Centralizing half the grid must not slow the withdrawal down.
	if res.Cells[1].Summary.Median > res.Cells[0].Summary.Median {
		t.Fatalf("SDN slower than pure BGP on the grid: %.3f vs %.3f",
			res.Cells[1].Summary.Median, res.Cells[0].Summary.Median)
	}
	var sb strings.Builder
	if err := Write(&sb, FormatJSON, res); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Topology string `json:"topology"`
		Cells    []struct {
			Label string  `json:"label"`
			MedS  float64 `json:"med_s"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("json output invalid: %v", err)
	}
	if parsed.Topology != "grid 2 3" || len(parsed.Cells) != 2 {
		t.Fatalf("json echo wrong: %+v", parsed)
	}
}

// TestTrialEventsRunOnAnyTopology smoke-runs the other events on
// non-clique generators through the uniform Trial API.
func TestTrialEventsRunOnAnyTopology(t *testing.T) {
	timers := bgp.DefaultTimers()
	timers.MRAI = 2 * time.Second
	for _, tc := range []struct {
		topo  TopoSpec
		event Event
	}{
		{TopoSpec{Kind: "ring", N: 4}, Announcement},
		{TopoSpec{Kind: "line", N: 4}, Failover},
	} {
		trial := Trial{
			Topo:      tc.topo,
			Placement: Placement{Strategy: PlaceLast, K: 2},
			Event:     tc.event,
			Timers:    timers,
			Seed:      3,
		}
		res, err := trial.Run()
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.event, tc.topo, err)
		}
		if res.Convergence <= 0 {
			t.Fatalf("%s on %s: no convergence measured", tc.event, tc.topo)
		}
		if !res.ReachableAfter {
			t.Fatalf("%s on %s: origin prefix unreachable after the event", tc.event, tc.topo)
		}
	}
}

// TestConvergeWindowFollowsMRAI runs the paper's withdrawal on clique
// 16 (fig2 at K = 0) with a 30-minute MRAI. Its path exploration lasts
// longer than the 2 h floor of the convergence window, so the run
// converges only under a window that grows with N·MRAI.
func TestConvergeWindowFollowsMRAI(t *testing.T) {
	timers := bgp.DefaultTimers()
	timers.MRAI = 30 * time.Minute
	res, err := Trial{Topo: TopoSpec{Kind: "clique", N: 16}, Timers: timers, Seed: 1, TopoSeed: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Convergence <= convergeFloor {
		t.Fatalf("converged after %v, within the %v floor: the run does not witness the window", res.Convergence, convergeFloor)
	}
	t.Logf("converged after %v", res.Convergence)
}

func TestSeedPolicies(t *testing.T) {
	sw := Sweep{
		Base:       Trial{Topo: TopoSpec{Kind: "ba", N: 8, M: 2}, Placement: Placement{Strategy: PlaceLast}},
		Axis:       SDNCounts(0, 4),
		BaseSeed:   10,
		SeedPolicy: SeedCellRun,
	}
	if got := sw.seed(1, 2); got != 10+2000+4 {
		t.Fatalf("SeedCellRun seed = %d", got)
	}
	trial := sw.trialFor(1, 2)
	if trial.Seed != 10+2000+4 || trial.Placement.K != 4 {
		t.Fatalf("trialFor = seed %d K %d", trial.Seed, trial.Placement.K)
	}
	// Random topologies must stay fixed across the whole sweep: every
	// cell and run builds from the sweep's BaseSeed, never the run
	// seed, so the swept axis is the only varying input.
	for ci := 0; ci < 2; ci++ {
		for run := 0; run < 3; run++ {
			if got := sw.trialFor(ci, run).TopoSeed; got != sw.BaseSeed {
				t.Fatalf("cell %d run %d: TopoSeed = %d, want BaseSeed %d", ci, run, got, sw.BaseSeed)
			}
		}
	}
	sw.SeedPolicy = SeedRun
	if got := sw.seed(1, 2); got != 12 {
		t.Fatalf("SeedRun seed = %d", got)
	}
	// SeedCellRun adds the axis value to the seed, so an axis without
	// integer values (NaN converts to int64 differently per platform)
	// must fail before any run starts.
	for name, axis := range map[string]Axis{
		"mode":     Modes(ModeBGP, ModeSDN),
		"policy":   Policies(PolicySpec{}, PolicySpec{Kind: PolicyGaoRexford}),
		"NaN loss": Losses(0, math.NaN()),
	} {
		sw := Sweep{Base: Trial{Topo: TopoSpec{Kind: "clique", N: 4}, Event: Flap}, Axis: axis, SeedPolicy: SeedCellRun}
		if _, err := sw.Run(); err == nil || !strings.Contains(err.Error(), "seed policy cell-run") {
			t.Errorf("SeedCellRun over a %s axis: err = %v, want a seed-policy rejection", name, err)
		}
	}
}

// TestSDNAxisNeedsKDrivenPlacement pins that an sdn-count axis over a
// placement that ignores K is rejected instead of silently running
// the identical trial in every cell.
func TestSDNAxisNeedsKDrivenPlacement(t *testing.T) {
	for _, p := range []Placement{
		{Strategy: PlaceNone},
		{Strategy: PlaceExplicit, ASNs: nil},
	} {
		sw := baseSweep()
		sw.Base.Placement = p
		if _, err := sw.Run(); err == nil {
			t.Fatalf("placement %q with sdn-count axis should error", p.Strategy)
		}
	}
}

func TestEventParse(t *testing.T) {
	for _, ev := range []Event{Withdrawal, Announcement, Failover, Flap} {
		got, err := ParseEvent(ev.String())
		if err != nil || got != ev {
			t.Fatalf("ParseEvent(%q) = %v, %v", ev.String(), got, err)
		}
	}
	if _, err := ParseEvent("earthquake"); err == nil {
		t.Fatal("unknown event should error")
	}
	if Event(9).String() == "" {
		t.Fatal("unknown Event.String empty")
	}
}

// TestBoxplots pins the one sweep renderer: the main plot, then one per
// scheduled epoch under its file suffix, each byte-equal to what
// plot.WriteBoxplot draws for the configuration the CLI and the report
// wrote by hand before the renderer existed. The last cell lost every
// run (a tolerant sweep), so it has no epochs and draws an empty box.
func TestBoxplots(t *testing.T) {
	sum := func(s float64) stats.Summary {
		return stats.Summary{N: 1, Min: s, Q1: s, Median: s, Q3: s, Max: s, Mean: s}
	}
	epochs := func(w, a float64) []EpochStats {
		return []EpochStats{{Kind: KindWithdrawal, Row: Row{Summary: sum(w)}}, {Kind: KindAnnouncement, At: 3 * time.Minute, Row: Row{Summary: sum(a)}}}
	}
	res := &SweepResult{
		Workload: Workload{{Kind: KindWithdrawal}, {At: 3 * time.Minute, Kind: KindAnnouncement}},
		Topo:     TopoSpec{Kind: "clique", N: 4},
		Axis:     SDNCounts(0, 2, 4),
		Cells: []Cell{
			{Label: "0", Fraction: 0, Row: Row{Summary: sum(50)}, Epochs: epochs(50, 5)},
			{Label: "2", Value: 2, Fraction: 0.5, Row: Row{Summary: sum(20)}, Epochs: epochs(20, 4)},
			{Label: "4", Value: 4, Fraction: 1},
		},
	}
	const subtitle = "spec sha256:0123456789ab"
	svgs, err := res.Boxplots(subtitle)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plot.BoxplotConfig{
		Title:    fmt.Sprintf("%s convergence on clique 4", res.Workload),
		Subtitle: subtitle,
		XLabel:   "fraction of ASes with centralized route control",
		YLabel:   "convergence time (s)",
	}
	want := []struct {
		suffix, title string
		medians       [2]float64
	}{
		{"", cfg.Title, [2]float64{50, 20}},
		{"-e0", "epoch 0 (@0s withdraw) on clique 4", [2]float64{50, 20}},
		{"-e1", "epoch 1 (@3m0s announce) on clique 4", [2]float64{5, 4}},
	}
	if len(svgs) != len(want) {
		t.Fatalf("%d plots, want %d", len(svgs), len(want))
	}
	for i, w := range want {
		cfg.Title = w.title
		var boxes []plot.Box
		for j, label := range []string{"0%", "50%", "100%"} {
			b := plot.Box{Label: label}
			if j < 2 {
				b.Summary = sum(w.medians[j])
			}
			boxes = append(boxes, b)
		}
		var buf bytes.Buffer
		if err := plot.WriteBoxplot(&buf, cfg, boxes); err != nil {
			t.Fatal(err)
		}
		if svgs[i].Suffix != w.suffix || !bytes.Equal(svgs[i].Data, buf.Bytes()) {
			t.Errorf("plot %d: suffix %q, %d bytes; want %q and the %d bytes of %q", i, svgs[i].Suffix, len(svgs[i].Data), w.suffix, buf.Len(), w.title)
		}
	}
}
