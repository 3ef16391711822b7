package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/stats"
)

// A run sets up at least minSetups times, and on up to maxSetups while
// the set-ups so far took under a second together (the cliques' 60 ms
// set-up needs the larger sample); setup_s is the median.
const (
	minSetups = 3
	maxSetups = 15
)

// runOptions are one run's inputs.
type runOptions struct {
	seed int64
	// budget is how long the untraced pass keeps running ops once the
	// workload's minimum count is done.
	budget time.Duration
	trace  bool
	// kernel is the timed work per micro kernel on the traced pass.
	kernel time.Duration
	// spans, when set, is where the traced pass writes its JSONL.
	spans string
}

// report is one run's outcome: the contract's result line plus what
// -out and -compare need beside it.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Digest is sim_digest: SHA-256 over the records of the first
	// DigestOps ops in seed order.
	Digest    string `json:"sim_digest"`
	DigestOps int    `json:"digest_ops"`
	// Samples is how many ops op_wall_ms_p50 is the median of.
	Samples int `json:"samples"`
	// Errors lists what made ops or the run fail.
	Errors []string `json:"errors,omitempty"`

	tracer *tracer
}

// fail counts one failed op.
func (r *report) fail(i int, err error) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf("op %d: %v", i, err))
}

// run executes one workload once. Infrastructure failures (set-up
// cannot complete) come back as an error; a wrong output is a failed
// op or an incorrect run in the report.
func run(sp spec, o runOptions, out io.Writer) (rep *report, err error) {
	w := sp.build(o.seed)
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	rep = &report{Workload: sp.name, Seed: o.seed, Trace: o.trace, DigestOps: sp.minOps}
	if o.trace {
		err = runTraced(sp, w, o, rep, out)
	} else {
		err = runUntraced(sp, w, o, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && len(rep.Errors) == 0
	return rep, nil
}

// digest is sim_digest over the given op records.
func digest(records [][]byte) string {
	sum := sha256.Sum256(bytes.Join(records, []byte{'\n'}))
	return hex.EncodeToString(sum[:])
}

// runUntraced measures the end-to-end metrics: what a user calls,
// nothing recorded but the clock around each op and the process
// counters around all of them.
func runUntraced(sp spec, w workload, o runOptions, rep *report) error {
	var setups []float64
	begin := time.Now()
	for r := 0; r < minSetups || (r < maxSetups && time.Since(begin) < time.Second); r++ {
		if r > 0 {
			if err := w.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := w.setUp(nil); err != nil {
			return fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var m0, m1 runtime.MemStats
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m0)
	var walls []float64
	var records [][]byte
	start := time.Now()
	for i := 0; i < sp.minOps || time.Since(start) < o.budget; i++ {
		t0 := time.Now()
		rec, err := w.op(i)
		walls = append(walls, float64(time.Since(t0).Nanoseconds())/1e6)
		rep.Attempted++
		if err != nil {
			rep.fail(i, err)
		}
		if i < sp.minOps {
			records = append(records, rec)
		}
	}
	runtime.ReadMemStats(&m1)
	rep.Digest = digest(records)
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if err := w.finish(nil, nil); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	}

	ops := float64(len(walls))
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", stats.Median(setups))
	ms.set("op_wall_ms_p50", stats.Median(walls))
	ms.set("cpu_ms_per_op", float64((cpu1-cpu0).Nanoseconds())/1e6/ops)
	ms.set("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/ops)
	ms.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops)
	ms.set("peak_rss_mb", rss)
	rep.Metrics = ms.vals
	rep.Samples = len(walls)
	return nil
}

// gcUse is what the Go runtime's collector has cost so far.
type gcUse struct {
	cpu    time.Duration // process user+sys
	gcCPU  float64       // seconds of CPU inside the collector
	cycles uint32
}

func readGCUse() (gcUse, error) {
	cpu, err := cpuTime()
	if err != nil {
		return gcUse{}, err
	}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := gcUse{cpu: cpu, cycles: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	return u, nil
}

// runTraced measures the per-layer metrics. Two instances of the
// workload are set up, and each of the minimum ops runs twice back to
// back: untraced on the first instance, as a user calls it, then on
// the second as the sequence of public calls made from here with a
// span around each. Pairing them keeps lab.trace_overhead_pct out of
// the host's slow spells, and the traced record must equal the
// untraced one byte for byte: that is the proof that the outside-in
// decomposition measures the same program. The workload's direct legs
// and the micro kernels follow.
func runTraced(sp spec, w workload, o runOptions, rep *report, out io.Writer) (err error) {
	tr := newTracer(sp.name)
	rep.tracer = tr
	ms := newMetricSet(perLayer)

	if err := w.setUp(nil); err != nil {
		return fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	wt := sp.build(o.seed)
	defer func() {
		if cerr := wt.close(); err == nil {
			err = cerr
		}
	}()
	tr.op = -1
	if err := wt.setUp(tr); err != nil {
		return fmt.Errorf("%s: traced set-up: %w", sp.name, err)
	}

	var base, traced []float64
	var records [][]byte
	var gc gcUse
	var heap runtime.MemStats
	var heapPeak uint64
	for i := 0; i < sp.minOps; i++ {
		g0, err := readGCUse()
		if err != nil {
			return err
		}
		t0 := time.Now()
		rec, opErr := w.op(i)
		base = append(base, float64(time.Since(t0).Nanoseconds())/1e6)
		g1, err := readGCUse()
		if err != nil {
			return err
		}
		gc.cpu += g1.cpu - g0.cpu
		gc.gcCPU += g1.gcCPU - g0.gcCPU
		gc.cycles += g1.cycles - g0.cycles
		runtime.ReadMemStats(&heap)
		heapPeak = max(heapPeak, heap.HeapInuse)
		records = append(records, rec)
		rep.Attempted++
		if opErr != nil {
			rep.fail(i, opErr)
		}

		tr.op = i
		tr.watch(nil)
		op := tr.begin("op")
		trec, opErr := wt.tracedOp(i, tr)
		rep.Attempted++
		if opErr != nil {
			tr.abandon()
			rep.fail(i, opErr)
			continue
		}
		tr.end(op)
		traced = append(traced, op.durMS())
		if !bytes.Equal(trec, rec) {
			rep.fail(i, fmt.Errorf("traced op produced %s, untraced op %s", trec, rec))
		}
	}
	rep.Digest = digest(records)
	if len(traced) == 0 {
		return errors.New(sp.name + ": no traced op completed")
	}

	if gc.cpu > 0 {
		ms.set("runtime.gc_cpu_frac", gc.gcCPU/gc.cpu.Seconds())
	}
	ms.set("runtime.gc_cycles_per_op", float64(gc.cycles)/float64(len(base)))
	ms.set("runtime.heap_peak_mb", float64(heapPeak)/1e6)
	ms.set("lab.op_ms_max", slices.Max(base))
	q1, q3 := quartiles(base)
	ms.set("lab.op_ms_iqr", q3-q1)

	tr.op = -1
	tr.watch(nil)
	if err := w.finish(nil, nil); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	}
	if err := wt.finish(tr, ms); err != nil {
		tr.abandon()
		rep.Errors = append(rep.Errors, err.Error())
	}
	spanMetrics(tr, ms, len(traced))
	ms.set("lab.trace_overhead_pct", 100*(stats.Median(traced)-stats.Median(base))/stats.Median(base))
	table, attributed := tr.attribution()
	ms.set("lab.attributed_pct", attributed)
	fmt.Fprintf(out, "attribution, %d traced ops (share of op wall and of op allocations):\n%s", len(traced), table)

	if err := runKernels(ms, o.kernel); err != nil {
		return err
	}
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return err
		}
	}
	rep.Metrics = ms.vals
	rep.Samples = len(base)
	return nil
}

// spanMetrics turns the span totals and their counter deltas into the
// declared per-layer numbers, per op.
func spanMetrics(tr *tracer, ms *metricSet, ops int) {
	tot := tr.totals()
	n := float64(ops)
	get := func(name string) spanTotal {
		if st := tot[name]; st != nil {
			return *st
		}
		return spanTotal{}
	}
	for _, name := range []string{"topology.build", "policy.build", "experiment.new", "experiment.establish",
		"experiment.warmup", "experiment.measure", "experiment.decode", "experiment.restore", "lab.collect"} {
		ms.set(name+"_ms", get(name).ms/n)
	}
	for _, name := range []string{"experiment.new", "experiment.establish", "experiment.warmup", "experiment.measure", "experiment.restore"} {
		ms.set(name+"_allocs", float64(get(name).delta.Mallocs)/n)
	}
	for _, name := range []string{"experiment.establish", "experiment.warmup", "experiment.measure"} {
		ms.set(name+"_events", float64(get(name).delta.Events)/n)
	}
	// Set-up spans (op -1) are not in the totals.
	for _, s := range tr.spans {
		switch {
		case s.EndNS == 0 || s.Op >= 0:
		case s.Name == "experiment.snapshot":
			ms.set("experiment.snapshot_ms", s.durMS())
		case s.Name == "experiment.encode":
			ms.set("experiment.encode_ms", s.durMS())
		}
	}

	op, measure := get("op"), get("experiment.measure")
	ms.set("sim.events_per_op", float64(op.delta.Events)/n)
	ms.set("sim.virtual_s_per_op", float64(op.delta.VirtualNS)/1e9/n)
	if op.ms > 0 {
		ms.set("sim.virtual_s_per_host_s", float64(op.delta.VirtualNS)/1e6/op.ms)
		ms.set("sim.events_per_host_s", float64(op.delta.Events)/(op.ms/1e3))
	}
	if measure.ms > 0 {
		ms.set("sim.measure_events_per_host_s", float64(measure.delta.Events)/(measure.ms/1e3))
	}
	ms.set("bgp.updates_sent_per_op", float64(op.delta.UpdatesSent)/n)
	ms.set("bgp.updates_recv_per_op", float64(op.delta.UpdatesRecv)/n)
	ms.set("bgp.keepalives_per_op", float64(op.delta.Keepalives)/n)
	ms.set("netem.frames_delivered_per_op", float64(op.delta.Delivered)/n)
	ms.set("netem.frames_dropped_per_op", float64(op.delta.Dropped)/n)
	ms.set("netem.retransmits_per_op", float64(op.delta.Retransmits)/n)
	ms.set("core.recomputes_per_op", float64(op.delta.Recomputes)/n)
	ms.set("core.flowmods_per_op", float64(op.delta.FlowMods)/n)
	if op.delta.Recomputes > 0 {
		ms.set("core.route_events_per_recompute", float64(op.delta.RouteEvents)/float64(op.delta.Recomputes))
	}
	if measure.delta.Recomputes > 0 {
		ms.set("core.measure_ms_per_recompute", measure.ms/float64(measure.delta.Recomputes))
	}
	ms.set("labd.submit_ack_ms_p50", spanP50(tr, "labd.submit"))
	ms.set("labd.hit_ms_p50", spanP50(tr, "labd.hit"))
}
