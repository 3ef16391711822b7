package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d declared
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclared pins BENCHMARK.json to the tables the binary measures
// and compares with: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestDeclared(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	specs := workloads(full)
	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, labbench has %d", len(d.Workloads), len(specs))
	}
	for i, sp := range specs {
		unique(sp.name)
		if d.Workloads[i].Name != sp.name || d.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, labbench has %q: %q", i, d.Workloads[i], sp.name, sp.why)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", sp.name)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, labbench has %d", len(got), kind, len(want))
		}
		for i, w := range want {
			unique(w.name)
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, labbench has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v, labbench has %v", kind, w.name, g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
	if d.RunSeconds < 1 || d.RunSeconds > 60 || len(d.Paths) != 1 || d.Paths[0] != "cmd/labbench" {
		t.Errorf("run_seconds %d, paths %v", d.RunSeconds, d.Paths)
	}
}

// runSmall runs every workload once at the tier-1 sizes.
func runSmall(t *testing.T, trace bool) []*report {
	t.Helper()
	sz := small
	sz.tmp = t.TempDir()
	var reps []*report
	for _, sp := range workloads(sz) {
		rep, err := run(sp, runOptions{seed: 7, trace: trace, kernel: time.Millisecond}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < sp.minOps {
			t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", sp.name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
		}
		reps = append(reps, rep)
	}
	return reps
}

// sameNames: the report emits exactly the declared metrics, with
// their units.
func sameNames(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s trace=%v emits %d metrics, %d declared", rep.Workload, rep.Trace, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s trace=%v: metric %s missing or unit %q, declared %q", rep.Workload, rep.Trace, d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloads runs every workload, untraced and traced, at its
// minimum op count on shrunken topologies: the emitted names are the
// declared ones, the end-to-end values are never 0, the traced pass
// reproduces the untraced results (run fails an op otherwise) and so
// the digests, spans nest, and a second traced run repeats every count.
func TestWorkloads(t *testing.T) {
	plain := runSmall(t, false)
	traced := runSmall(t, true)
	again := runSmall(t, true)
	for i, rep := range plain {
		sameNames(t, rep, endToEnd)
		for _, d := range endToEnd {
			if rep.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, must never be 0", rep.Workload, d.name, rep.Metrics[d.name].Value)
			}
		}
		tr := traced[i]
		sameNames(t, tr, perLayer)
		if rep.Digest != tr.Digest || tr.Digest != again[i].Digest {
			t.Errorf("%s: sim_digest untraced %.12s, traced %.12s, traced again %.12s", rep.Workload, rep.Digest, tr.Digest, again[i].Digest)
		}
		for _, d := range perLayer {
			if a, b := tr.Metrics[d.name].Value, again[i].Metrics[d.name].Value; d.kind == "count" && a != b {
				t.Errorf("%s: count %s = %v, then %v", rep.Workload, d.name, a, b)
			}
		}
		// At full size the named spans cover 98% and more; on these
		// millisecond ops the tracer's own counter samples, which fall
		// between the spans, are most of the rest.
		if got := tr.Metrics["lab.attributed_pct"].Value; got < 75 {
			t.Errorf("%s: named spans cover %.1f%% of op wall, want >= 75%%", rep.Workload, got)
		}
		checkSpans(t, tr.tracer)
	}

	// What the moves/not table predicts, on the counts.
	byName := map[string]*report{}
	for _, tr := range traced {
		byName[tr.Workload] = tr
	}
	for _, w := range []string{"clique16-pure", "internet160-pure", "internet1000-gr"} {
		if v := byName[w].Metrics["core.recomputes_per_op"].Value; v != 0 {
			t.Errorf("%s: core.recomputes_per_op = %v at K=0", w, v)
		}
		if v := byName[w].Metrics["sim.events_per_op"].Value; v <= 0 {
			t.Errorf("%s: sim.events_per_op = %v", w, v)
		}
	}
	if v := byName["clique16-half"].Metrics["core.recomputes_per_op"].Value; v <= 0 {
		t.Errorf("clique16-half: core.recomputes_per_op = %v at K>0", v)
	}
	if v := byName["fork-internet500"].Metrics["sim.events_per_op"].Value; v != 0 {
		t.Errorf("fork-internet500: %v kernel events inside an op", v)
	}
	if v := byName["labd-fig2"].Metrics["labd.hit_ms_p50"].Value; v <= 0 {
		t.Errorf("labd-fig2: labd.hit_ms_p50 = %v", v)
	}
}

// checkSpans: every closed child lies inside its parent, and no span's
// children cover more than the span itself.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	byID := map[int]*span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d %s ends before it starts", tr.workload, s.ID, s.Name)
		}
	}
	for _, s := range tr.spans {
		if p := byID[s.Parent]; s.Parent != 0 && (p == nil || s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Op != p.Op) {
			t.Errorf("%s: span %d %s [%d,%d] op %d is not inside its parent %+v", tr.workload, s.ID, s.Name, s.StartNS, s.EndNS, s.Op, p)
		}
	}
	for id, self := range tr.selfMS() {
		if self < 0 {
			t.Errorf("%s: span %d %s has self time %v ms", tr.workload, id, byID[id].Name, self)
		}
	}
	var buf bytes.Buffer
	for _, s := range tr.spans {
		line, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	for _, key := range []string{`"id"`, `"parent"`, `"workload"`, `"op"`, `"name"`, `"start_ns"`, `"end_ns"`} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("span JSON lacks %s", key)
		}
	}
}

// TestCompare: identical sets pass, an op_wall_ms_p50 slower by one and
// a half times its bound is a breach, a moved count is a breach, and a spread wider than the bound
// is unresolved, not ok.
func TestCompare(t *testing.T) {
	e2e := func(scale float64) map[string]metric {
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.name] = metric{Value: 100 * scale, Unit: d.unit}
		}
		return m
	}
	layer := map[string]metric{}
	for _, d := range perLayer {
		layer[d.name] = metric{Value: 42, Unit: d.unit}
	}
	mk := func() set {
		w := setWorkload{Name: "clique16-pure", Trace: report{Seed: 1, Trace: true, Correct: true, Attempted: 4, Digest: "d", Metrics: layer}}
		for i, scale := range []float64{0.99, 1, 1.01} {
			w.Runs = append(w.Runs, report{Seed: int64(1 + i), Correct: true, Attempted: 9, Digest: "d", Metrics: e2e(scale)})
		}
		return set{Workloads: []setWorkload{w}}
	}
	var out bytes.Buffer
	if !compareSets(mk(), mk(), &out) || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical sets do not compare clean:\n%s", out.String())
	}

	slow := mk()
	for i := range slow.Workloads[0].Runs {
		m := slow.Workloads[0].Runs[i].Metrics
		m["op_wall_ms_p50"] = metric{Value: m["op_wall_ms_p50"].Value * (1 + 1.5*endToEnd[1].bound), Unit: "ms"}
	}
	out.Reset()
	if compareSets(mk(), slow, &out) || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a slower op_wall_ms_p50 passes:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(slow, mk(), &out) {
		t.Errorf("a faster op_wall_ms_p50 is flagged:\n%s", out.String())
	}

	moved := mk()
	lm := map[string]metric{}
	for k, v := range layer {
		lm[k] = v
	}
	lm["sim.events_per_op"] = metric{Value: 43, Unit: "count"}
	moved.Workloads[0].Trace.Metrics = lm
	out.Reset()
	if compareSets(mk(), moved, &out) || !strings.Contains(out.String(), "sim.events_per_op") {
		t.Errorf("a moved count passes:\n%s", out.String())
	}
	moved = mk()
	moved.Workloads[0].Runs[1].Digest = "other"
	if compareSets(mk(), moved, io.Discard) {
		t.Error("a different sim_digest passes")
	}
	moved = mk()
	moved.Workloads[0].Runs[2].Failed = 1
	if compareSets(mk(), moved, io.Discard) {
		t.Error("a failed op passes")
	}

	noisy := mk()
	noisy.Workloads[0].Runs[0].Metrics["cpu_ms_per_op"] = metric{Value: 70, Unit: "ms"}
	noisy.Workloads[0].Runs[2].Metrics["cpu_ms_per_op"] = metric{Value: 130, Unit: "ms"}
	out.Reset()
	if !compareSets(mk(), noisy, &out) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound is not unresolved:\n%s", out.String())
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v; Python gives 1, 3", q1, q3)
	}
}
