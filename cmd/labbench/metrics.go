package main

// The declared metric tables. BENCHMARK.json at the repo root states
// the same names, units, directions and bounds; TestDeclared pins the
// two against each other, so the binary never has to read that file.

// metricDef declares one metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median an end-to-end metric
	// may worsen by before -compare calls it a regression.
	bound float64
	// kind says where a per-layer number comes from: "span" (traced
	// pass wall time and allocation deltas), "count" (public counters;
	// exact per seed), "kernel" (steady-state micro loop) or "runtime"
	// (Go runtime, not a repo module).
	kind string
}

// endToEnd is what a user of the emulator pays per op, measured with
// tracing off. The bounds are at least three times the widest
// quartile spread seen over ten runs under ten seeds on the 2-vCPU
// reference host (README.md has the table). Host time on that VM
// also shifts by up to 20% for minutes at a stretch, so wall and CPU
// take the largest bound allowed; peak RSS follows GC timing; and
// every run draws fresh MRAI-jitter seeds, in which path exploration
// on `internet N` is chaotic — so allocations repeat to 3%, not to
// the 0.01% a fixed seed gives.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_wall_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.1},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.1},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer is every number the traced pass reports. A workload that
// does not exercise a layer reports 0 for it: no time was spent there.
var perLayer = []metricDef{
	{name: "topology.build_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "policy.build_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.new_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.new_allocs", unit: "count", better: "lower", kind: "span"},
	{name: "experiment.establish_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.establish_events", unit: "count", better: "lower", kind: "count"},
	{name: "experiment.establish_allocs", unit: "count", better: "lower", kind: "span"},
	{name: "experiment.warmup_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.warmup_events", unit: "count", better: "lower", kind: "count"},
	{name: "experiment.warmup_allocs", unit: "count", better: "lower", kind: "span"},
	{name: "experiment.measure_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.measure_events", unit: "count", better: "lower", kind: "count"},
	{name: "experiment.measure_allocs", unit: "count", better: "lower", kind: "span"},
	{name: "experiment.snapshot_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.encode_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.snapshot_mb", unit: "MB", better: "lower", kind: "count"},
	{name: "experiment.decode_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.restore_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "experiment.restore_allocs", unit: "count", better: "lower", kind: "span"},

	{name: "sim.events_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "sim.virtual_s_per_op", unit: "s", better: "lower", kind: "count"},
	{name: "sim.virtual_s_per_host_s", unit: "ratio", better: "higher", kind: "span"},
	{name: "sim.events_per_host_s", unit: "1/s", better: "higher", kind: "span"},
	{name: "sim.measure_events_per_host_s", unit: "1/s", better: "higher", kind: "span"},

	{name: "bgp.updates_sent_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "bgp.updates_recv_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "bgp.keepalives_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "bgp.updates_per_best_change", unit: "ratio", better: "lower", kind: "count"},
	{name: "rib.best_path_changes_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "monitor.convergence_virtual_s_p50", unit: "s", better: "lower", kind: "count"},
	{name: "netem.frames_delivered_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "netem.frames_dropped_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "netem.retransmits_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "core.recomputes_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "core.flowmods_per_op", unit: "count", better: "lower", kind: "count"},
	{name: "core.route_events_per_recompute", unit: "ratio", better: "higher", kind: "count"},
	{name: "core.measure_ms_per_recompute", unit: "ms", better: "lower", kind: "span"},

	{name: "lab.collect_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "lab.op_ms_max", unit: "ms", better: "lower", kind: "span"},
	{name: "lab.op_ms_iqr", unit: "ms", better: "lower", kind: "span"},
	{name: "lab.attributed_pct", unit: "%", better: "higher", kind: "span"},
	{name: "lab.trace_overhead_pct", unit: "%", better: "lower", kind: "span"},
	{name: "lab.sweep_p1_s", unit: "s", better: "lower", kind: "span"},
	{name: "lab.sweep_pn_s", unit: "s", better: "lower", kind: "span"},
	{name: "lab.sweep_speedup", unit: "ratio", better: "higher", kind: "span"},
	{name: "artifact.store_ms_per_run", unit: "ms", better: "lower", kind: "span"},
	{name: "artifact.finish_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "artifact.hit_sweep_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "artifact.record_bytes_per_run", unit: "count", better: "lower", kind: "count"},
	{name: "labd.submit_ack_ms_p50", unit: "ms", better: "lower", kind: "span"},
	{name: "labd.overhead_ms", unit: "ms", better: "lower", kind: "span"},
	{name: "labd.hit_ms_p50", unit: "ms", better: "lower", kind: "span"},
	{name: "labd.events_per_job", unit: "count", better: "lower", kind: "count"},
	{name: "labd.result_bytes", unit: "count", better: "lower", kind: "count"},

	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", kind: "runtime"},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower", kind: "runtime"},
	{name: "runtime.heap_peak_mb", unit: "MB", better: "lower", kind: "runtime"},

	{name: "sim.drain_same_ts_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "sim.drain_same_ts_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "sim.drain_spread_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "sim.drain_spread_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "sim.timer_reset_short_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "sim.timer_reset_short_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "sim.timer_reset_long_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "sim.timer_reset_long_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "rib.decide_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "rib.decide_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "rib.decide_spread_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "rib.decide_spread_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "rib.lookup_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "rib.lookup_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "rib.best_routes_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "rib.best_routes_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "wire.marshal_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "wire.marshal_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "wire.unmarshal_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "wire.unmarshal_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "netem.send_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "netem.send_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "ofp.roundtrip_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "ofp.roundtrip_allocs", unit: "count", better: "lower", kind: "kernel"},
	{name: "sdn.flow_lookup_ns", unit: "ns", better: "lower", kind: "kernel"},
	{name: "sdn.flow_lookup_allocs", unit: "count", better: "lower", kind: "kernel"},
}

// metric is one reported value with its unit, as the result line
// carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a declared table and refuses
// names the table does not hold.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]metric
}

// newMetricSet starts every declared metric at 0.
func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: map[string]metricDef{}, vals: map[string]metric{}}
	for _, d := range defs {
		s.defs[d.name] = d
		s.vals[d.name] = metric{Unit: d.unit}
	}
	return s
}

// set records a declared metric's value; an undeclared name is a
// programming error.
func (s *metricSet) set(name string, v float64) {
	d, ok := s.defs[name]
	if !ok {
		panic("labbench: undeclared metric " + name)
	}
	s.vals[name] = metric{Value: v, Unit: d.unit}
}
