package lab

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fixedResult builds a small synthetic sweep result with hand-picked
// numbers so the encoder goldens are exact and fast (no emulation).
func fixedResult() *SweepResult {
	mk := func(durs []time.Duration, updates uint64, changes int, recomp uint64, reach bool) Cell {
		results := make([]Result, len(durs))
		for i, d := range durs {
			results[i] = Result{
				Convergence:     d,
				UpdatesSent:     updates,
				UpdatesReceived: updates,
				BestPathChanges: changes,
				Recomputes:      recomp,
				ReachableAfter:  reach,
			}
		}
		c := Cell{Results: results}
		c.summarize()
		return c
	}
	sweep := Sweep{
		Name: "fig2",
		Base: Trial{Topo: TopoSpec{Kind: "clique", N: 4}, Event: Withdrawal},
		Axis: SDNCounts(0, 2),
		Runs: 2, BaseSeed: 1,
	}
	c0 := mk([]time.Duration{40 * time.Second, 50 * time.Second}, 120, 30, 0, false)
	c1 := mk([]time.Duration{10 * time.Second, 20 * time.Second}, 40, 10, 4, false)
	cells := []Cell{c0, c1}
	for i := range cells {
		cells[i].Label = sweep.Axis.Label(i)
		cells[i].Value = sweep.Axis.Value(i)
		cells[i].Fraction = cells[i].Value / float64(sweep.Base.Topo.Nodes())
	}
	return &SweepResult{
		Name: sweep.Name, Event: sweep.Base.Event, Topo: sweep.Base.Topo,
		Axis: sweep.Axis, Runs: sweep.Runs, BaseSeed: sweep.BaseSeed, Cells: cells,
	}
}

func encode(t *testing.T, f Format, res *SweepResult) string {
	t.Helper()
	var sb strings.Builder
	if err := Write(&sb, f, res); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestWriteTableGolden(t *testing.T) {
	got := encode(t, FormatTable, fixedResult())
	want := `# fig2: withdrawal convergence on clique 4 vs sdn_k (policy permit-all, 2 runs/point, seed 1)
sdn_k        fraction     n    min_s     q1_s    med_s     q3_s    max_s   mean_s   updates  best_chg recomputes reachable
0            0.000        2   40.000   42.500   45.000   47.500   50.000   45.000     120.0      30.0        0.0     false
2            0.500        2   10.000   12.500   15.000   17.500   20.000   15.000      40.0      10.0        4.0     false
# linear fit: t = 45.0s -60.0s*fraction (r2=1.000)
`
	if got != want {
		t.Fatalf("table golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteCSVGolden(t *testing.T) {
	got := encode(t, FormatCSV, fixedResult())
	want := `sdn_k,value,fraction,n,min_s,q1_s,med_s,q3_s,max_s,mean_s,updates_sent,updates_recv,best_path_changes,recomputes,hijacked,reachable_after,epoch,epoch_kind,epoch_at_s,failed
0,0,0,2,40,42.5,45,47.5,50,45,120,120,30,0,0,false,,,,0
2,2,0.5,2,10,12.5,15,17.5,20,15,40,40,10,4,0,false,,,,0
`
	if got != want {
		t.Fatalf("csv golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	got := encode(t, FormatJSON, fixedResult())
	want := `{
  "experiment": "fig2",
  "event": "withdrawal",
  "topology": "clique 4",
  "policy": "permit-all",
  "axis": "sdn_k",
  "runs": 2,
  "base_seed": 1,
  "cells": [
    {
      "label": "0",
      "value": 0,
      "fraction": 0,
      "n": 2,
      "min_s": 40,
      "q1_s": 42.5,
      "med_s": 45,
      "q3_s": 47.5,
      "max_s": 50,
      "mean_s": 45,
      "durations_s": [
        40,
        50
      ],
      "updates_sent": 120,
      "updates_recv": 120,
      "best_path_changes": 30,
      "recomputes": 0,
      "hijacked": 0,
      "reachable_after": false
    },
    {
      "label": "2",
      "value": 2,
      "fraction": 0.5,
      "n": 2,
      "min_s": 10,
      "q1_s": 12.5,
      "med_s": 15,
      "q3_s": 17.5,
      "max_s": 20,
      "mean_s": 15,
      "durations_s": [
        10,
        20
      ],
      "updates_sent": 40,
      "updates_recv": 40,
      "best_path_changes": 10,
      "recomputes": 4,
      "hijacked": 0,
      "reachable_after": false
    }
  ],
  "fit": {
    "intercept_s": 45,
    "slope_s": -60,
    "r2": 1
  }
}
`
	if got != want {
		t.Fatalf("json golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// And it must be valid JSON, machine-readably.
	var parsed map[string]any
	if err := json.Unmarshal([]byte(got), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
}

// TestFitDegenerateSweeps covers, in every format, the sweeps whose fit
// has fewer points than cells or no line at all: duplicate axis values
// with no variance in x (fit left out, never NaN — JSON would refuse to
// encode it), duplicates beside a distinct value (legal, and fitted),
// and tolerant sweeps whose failed cell has no median and must not
// enter the fit as 0 s.
func TestFitDegenerateSweeps(t *testing.T) {
	cases := []struct {
		name    string
		ks      []int
		medians []float64 // per cell, seconds; negative: no run survived
		table   string    // fit line of the table, "" for none
		md      string    // fit line of the markdown
		fit     *jsonFit
	}{
		{name: "no x variance", ks: []int{2, 2}, medians: []float64{15, 25}},
		{name: "duplicates beside a distinct value", ks: []int{0, 2, 2}, medians: []float64{45, 10, 20},
			table: "# linear fit: t = 45.0s -60.0s*fraction (r2=0.923)\n",
			md:    "\nLinear fit: t = 45.000 s -60.000 s × fraction (r² = 0.923).\n",
			fit:   &jsonFit{InterceptS: 45, SlopeS: -60, R2: 0.923}},
		{name: "failed K=0 cell, two survivors", ks: []int{0, 2, 4}, medians: []float64{-1, 30, 10},
			table: "# linear fit: t = 50.0s -40.0s*fraction (r2=1.000)\n",
			md:    "\nLinear fit: t = 50.000 s -40.000 s × fraction (r² = 1.000).\n",
			fit:   &jsonFit{InterceptS: 50, SlopeS: -40, R2: 1}},
		{name: "failed cell, one survivor", ks: []int{0, 4}, medians: []float64{-1, 10}},
	}
	for _, c := range cases {
		res := fixedResult()
		res.Axis = SDNCounts(c.ks...)
		res.Runs = 1
		res.Cells = nil
		for i, med := range c.medians {
			cell := Cell{Label: res.Axis.Label(i), Value: res.Axis.Value(i)}
			cell.Fraction = cell.Value / float64(res.Topo.Nodes())
			if med < 0 {
				res.Failures = append(res.Failures, CellFailure{Cell: i, Label: cell.Label, Err: "wall-clock budget exhausted", TimedOut: true})
			} else {
				cell.Results = []Result{{Convergence: time.Duration(med * float64(time.Second))}}
				cell.summarize()
			}
			res.Cells = append(res.Cells, cell)
		}
		out := map[Format]string{}
		for _, f := range []Format{FormatTable, FormatMarkdown, FormatCSV, FormatJSON} {
			out[f] = encode(t, f, res) // fails the test on an encoder error
			if strings.Contains(out[f], "NaN") {
				t.Errorf("%s: %s output carries NaN:\n%s", c.name, f, out[f])
			}
		}
		for _, fl := range []struct {
			f          Format
			mark, want string
		}{{FormatTable, "linear fit", c.table}, {FormatMarkdown, "Linear fit", c.md}} {
			if fl.want == "" && strings.Contains(out[fl.f], fl.mark) {
				t.Errorf("%s: %s reports a fit where there is none:\n%s", c.name, fl.f, out[fl.f])
			}
			if !strings.Contains(out[fl.f], fl.want) {
				t.Errorf("%s: %s lacks %q:\n%s", c.name, fl.f, fl.want, out[fl.f])
			}
		}
		if rows := strings.Count(out[FormatCSV], "\n"); rows != 1+len(c.ks) {
			t.Errorf("%s: csv has %d lines, want a header and %d cells:\n%s", c.name, rows, len(c.ks), out[FormatCSV])
		}
		var parsed struct {
			Fit *jsonFit `json:"fit"`
		}
		if err := json.Unmarshal([]byte(out[FormatJSON]), &parsed); err != nil {
			t.Fatalf("%s: invalid json: %v", c.name, err)
		}
		if got, want := parsed.Fit, c.fit; (got == nil) != (want == nil) {
			t.Errorf("%s: json fit = %+v, want %+v", c.name, got, want)
		} else if got != nil && (math.Abs(got.InterceptS-want.InterceptS) > 5e-4 ||
			math.Abs(got.SlopeS-want.SlopeS) > 5e-4 || math.Abs(got.R2-want.R2) > 5e-4) {
			t.Errorf("%s: json fit = %+v, want %+v", c.name, *got, *want)
		}
	}
}

// TestWriteModeAxis covers the non-numeric axis: no value/fraction
// columns, no fit.
func TestWriteModeAxis(t *testing.T) {
	res := fixedResult()
	res.Name, res.Event = "flap", Flap
	res.Axis = Modes(ModeBGP, ModeSDN)
	for i := range res.Cells {
		res.Cells[i].Label = res.Axis.Label(i)
		res.Cells[i].Value = res.Axis.Value(i)
		res.Cells[i].Fraction = res.Axis.Value(i) // NaN
	}
	table := encode(t, FormatTable, res)
	if strings.Contains(table, "linear fit") {
		t.Fatalf("mode axis must not be fitted:\n%s", table)
	}
	if !strings.Contains(table, "mode") || !strings.Contains(table, "bgp") {
		t.Fatalf("mode labels missing:\n%s", table)
	}
	csv := encode(t, FormatCSV, res)
	if !strings.Contains(csv, "\nbgp,,,") {
		t.Fatalf("mode csv should leave value/fraction empty:\n%s", csv)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(encode(t, FormatJSON, res)), &parsed); err != nil {
		t.Fatalf("mode json invalid: %v", err)
	}
	if _, hasFit := parsed["fit"]; hasFit {
		t.Fatal("mode json must omit fit")
	}
}

// fixedWorkloadResult builds a synthetic two-event (maintenance
// window) sweep result with hand-picked per-epoch numbers, so the
// per-epoch encoder goldens are exact and fast.
func fixedWorkloadResult() *SweepResult {
	w := Workload{
		{At: 0, Kind: KindWithdrawal},
		{At: 2 * time.Minute, Kind: KindAnnouncement},
	}
	mkEpochs := func(c1, c2 time.Duration, u1, u2 uint64) []Epoch {
		return []Epoch{
			{Kind: KindWithdrawal, At: 0, Convergence: c1, UpdatesSent: u1, UpdatesReceived: u1, BestPathChanges: 5, Recomputes: 1},
			{Kind: KindAnnouncement, At: 2 * time.Minute, Convergence: c2, UpdatesSent: u2, UpdatesReceived: u2, BestPathChanges: 3, Recomputes: 1},
		}
	}
	mk := func(durs []time.Duration, updates uint64, epochs [][]Epoch) Cell {
		results := make([]Result, len(durs))
		for i, d := range durs {
			results[i] = Result{
				Convergence:     d,
				UpdatesSent:     updates,
				UpdatesReceived: updates,
				BestPathChanges: 8,
				Recomputes:      2,
				ReachableAfter:  true,
				Epochs:          epochs[i],
			}
		}
		c := Cell{Results: results}
		c.summarize()
		return c
	}
	sweep := Sweep{
		Name: "maint",
		Base: Trial{Topo: TopoSpec{Kind: "clique", N: 4}, Workload: w},
		Axis: SDNCounts(0, 2),
		Runs: 2, BaseSeed: 1,
	}
	c0 := mk([]time.Duration{20 * time.Second, 30 * time.Second}, 100,
		[][]Epoch{mkEpochs(40*time.Second, 20*time.Second, 60, 40), mkEpochs(50*time.Second, 30*time.Second, 60, 40)})
	c1 := mk([]time.Duration{5 * time.Second, 15 * time.Second}, 40,
		[][]Epoch{mkEpochs(10*time.Second, 5*time.Second, 25, 15), mkEpochs(20*time.Second, 15*time.Second, 25, 15)})
	cells := []Cell{c0, c1}
	for i := range cells {
		cells[i].Label = sweep.Axis.Label(i)
		cells[i].Value = sweep.Axis.Value(i)
		cells[i].Fraction = cells[i].Value / float64(sweep.Base.Topo.Nodes())
	}
	return &SweepResult{
		Name: sweep.Name, Event: sweep.Base.Event, Workload: w, Topo: sweep.Base.Topo,
		Axis: sweep.Axis, Runs: sweep.Runs, BaseSeed: sweep.BaseSeed, Cells: cells,
	}
}

// TestWriteTableWorkloadGolden pins the per-epoch sub-rows of the
// human table: one indented row per scheduled event under each cell.
func TestWriteTableWorkloadGolden(t *testing.T) {
	got := encode(t, FormatTable, fixedWorkloadResult())
	want := `# maint: withdraw@0s; announce@2m0s convergence on clique 4 vs sdn_k (policy permit-all, 2 runs/point, seed 1)
sdn_k        fraction     n    min_s     q1_s    med_s     q3_s    max_s   mean_s   updates  best_chg recomputes reachable
0            0.000        2   20.000   22.500   25.000   27.500   30.000   25.000     100.0       8.0        2.0      true
  @0s withdraw            2   40.000   42.500   45.000   47.500   50.000   45.000      60.0       5.0        1.0
  @2m0s announce          2   20.000   22.500   25.000   27.500   30.000   25.000      40.0       3.0        1.0
2            0.500        2    5.000    7.500   10.000   12.500   15.000   10.000      40.0       8.0        2.0      true
  @0s withdraw            2   10.000   12.500   15.000   17.500   20.000   15.000      25.0       5.0        1.0
  @2m0s announce          2    5.000    7.500   10.000   12.500   15.000   10.000      15.0       3.0        1.0
# linear fit: t = 25.0s -30.0s*fraction (r2=1.000)
`
	if got != want {
		t.Fatalf("workload table golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteCSVWorkloadGolden pins the per-epoch CSV rows: cell-summary
// rows leave the trailing epoch columns empty; epoch rows fill them
// and window every statistic column to the epoch.
func TestWriteCSVWorkloadGolden(t *testing.T) {
	got := encode(t, FormatCSV, fixedWorkloadResult())
	want := `sdn_k,value,fraction,n,min_s,q1_s,med_s,q3_s,max_s,mean_s,updates_sent,updates_recv,best_path_changes,recomputes,hijacked,reachable_after,epoch,epoch_kind,epoch_at_s,failed
0,0,0,2,20,22.5,25,27.5,30,25,100,100,8,2,0,true,,,,0
0,0,0,2,40,42.5,45,47.5,50,45,60,60,5,1,0,,0,withdrawal,0,
0,0,0,2,20,22.5,25,27.5,30,25,40,40,3,1,0,,1,announcement,120,
2,2,0.5,2,5,7.5,10,12.5,15,10,40,40,8,2,0,true,,,,0
2,2,0.5,2,10,12.5,15,17.5,20,15,25,25,5,1,0,,0,withdrawal,0,
2,2,0.5,2,5,7.5,10,12.5,15,10,15,15,3,1,0,,1,announcement,120,
`
	if got != want {
		t.Fatalf("workload csv golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteJSONWorkload pins the per-epoch JSON: the workload echo,
// the schedule-form event label, and the full epochs array content.
func TestWriteJSONWorkload(t *testing.T) {
	got := encode(t, FormatJSON, fixedWorkloadResult())
	var parsed struct {
		Event    string `json:"event"`
		Workload []struct {
			Kind string  `json:"kind"`
			AtS  float64 `json:"at_s"`
		} `json:"workload"`
		Cells []struct {
			Label  string `json:"label"`
			Epochs []struct {
				Epoch       int       `json:"epoch"`
				Kind        string    `json:"kind"`
				AtS         float64   `json:"at_s"`
				MedS        float64   `json:"med_s"`
				DurationsS  []float64 `json:"durations_s"`
				UpdatesSent float64   `json:"updates_sent"`
				Hijacked    float64   `json:"hijacked"`
			} `json:"epochs"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(got), &parsed); err != nil {
		t.Fatalf("workload json invalid: %v", err)
	}
	if parsed.Event != "withdraw@0s; announce@2m0s" {
		t.Fatalf("event label = %q", parsed.Event)
	}
	if len(parsed.Workload) != 2 || parsed.Workload[0].Kind != "withdrawal" || parsed.Workload[1].AtS != 120 {
		t.Fatalf("workload echo = %+v", parsed.Workload)
	}
	if len(parsed.Cells) != 2 {
		t.Fatalf("cells = %d", len(parsed.Cells))
	}
	ep := parsed.Cells[0].Epochs
	if len(ep) != 2 {
		t.Fatalf("cell 0 epochs = %d, want 2", len(ep))
	}
	if ep[0].Kind != "withdrawal" || ep[0].MedS != 45 || !reflect.DeepEqual(ep[0].DurationsS, []float64{40, 50}) || ep[0].UpdatesSent != 60 {
		t.Fatalf("epoch 0 = %+v", ep[0])
	}
	if ep[1].Kind != "announcement" || ep[1].AtS != 120 || ep[1].MedS != 25 || ep[1].UpdatesSent != 40 {
		t.Fatalf("epoch 1 = %+v", ep[1])
	}
	// Single-event results must keep the epoch-free shape.
	single := encode(t, FormatJSON, fixedResult())
	if strings.Contains(single, `"epochs"`) || strings.Contains(single, `"workload"`) {
		t.Fatalf("single-event json must omit epochs/workload:\n%s", single)
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"table", "csv", "json"} {
		if _, err := ParseFormat(s); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("unknown format should error")
	}
}

// TestWriteMarkdownGolden pins the GFM encoder: the config-echo line,
// the pipe table, and the full-precision fit line REPORT.md embeds.
func TestWriteMarkdownGolden(t *testing.T) {
	got := encode(t, FormatMarkdown, fixedResult())
	want := `**fig2** — withdrawal on clique 4 vs sdn_k (policy permit-all, 2 runs/point, seed 1)

| sdn_k | fraction | n | min_s | q1_s | med_s | q3_s | max_s | mean_s | updates | best_chg | recomputes | reachable |
|:--|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|
| 0 | 0.000 | 2 | 40.000 | 42.500 | 45.000 | 47.500 | 50.000 | 45.000 | 120.0 | 30.0 | 0.0 | false |
| 2 | 0.500 | 2 | 10.000 | 12.500 | 15.000 | 17.500 | 20.000 | 15.000 | 40.0 | 10.0 | 4.0 | false |

Linear fit: t = 45.000 s -60.000 s × fraction (r² = 1.000).
`
	if got != want {
		t.Fatalf("markdown golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteMarkdownWorkloadGolden pins the per-epoch sub-rows of the
// markdown table: one indented row per scheduled event under each
// cell, same statistic columns windowed to the epoch.
func TestWriteMarkdownWorkloadGolden(t *testing.T) {
	got := encode(t, FormatMarkdown, fixedWorkloadResult())
	want := `**maint** — withdraw@0s; announce@2m0s on clique 4 vs sdn_k (policy permit-all, 2 runs/point, seed 1)

| sdn_k | fraction | n | min_s | q1_s | med_s | q3_s | max_s | mean_s | updates | best_chg | recomputes | reachable |
|:--|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|
| 0 | 0.000 | 2 | 20.000 | 22.500 | 25.000 | 27.500 | 30.000 | 25.000 | 100.0 | 8.0 | 2.0 | true |
| &nbsp;&nbsp;@0s withdraw | 0.000 | 2 | 40.000 | 42.500 | 45.000 | 47.500 | 50.000 | 45.000 | 60.0 | 5.0 | 1.0 |  |
| &nbsp;&nbsp;@2m0s announce | 0.000 | 2 | 20.000 | 22.500 | 25.000 | 27.500 | 30.000 | 25.000 | 40.0 | 3.0 | 1.0 |  |
| 2 | 0.500 | 2 | 5.000 | 7.500 | 10.000 | 12.500 | 15.000 | 10.000 | 40.0 | 8.0 | 2.0 | true |
| &nbsp;&nbsp;@0s withdraw | 0.500 | 2 | 10.000 | 12.500 | 15.000 | 17.500 | 20.000 | 15.000 | 25.0 | 5.0 | 1.0 |  |
| &nbsp;&nbsp;@2m0s announce | 0.500 | 2 | 5.000 | 7.500 | 10.000 | 12.500 | 15.000 | 10.000 | 15.0 | 3.0 | 1.0 |  |

Linear fit: t = 25.000 s -30.000 s × fraction (r² = 1.000).
`
	if got != want {
		t.Fatalf("markdown workload golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
