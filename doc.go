// Package repro is a from-scratch Go reproduction of "Evaluating the
// Effect of Centralization on Routing Convergence on a Hybrid BGP-SDN
// Emulation Framework" (Gämperli, Kotronis, Dimitropoulos; SIGCOMM
// 2014 demo, arXiv:1611.03113).
//
// The library lives under internal/: a deterministic discrete-event
// network emulator (sim, netem), a BGP-4 implementation (bgp,
// bgp/wire, bgp/rib, policy), the SDN cluster substrate (sdn, sdn/ofp)
// and the paper's IDR controller, which terminates the cluster's eBGP
// sessions itself (core), plus topology
// generation and dataset formats (topology, addressing), measurement
// tooling (monitor, fed by every router's trace hook; stats) and
// experiment orchestration (experiment, scenario).
//
// Evaluation runs through internal/lab, the unified entry point: a
// lab.Trial names any topology generator (lab.TopoSpec), an SDN
// placement strategy (lab.Placement), a routing-policy template
// (lab.PolicySpec: permit-all, gao-rexford, prefix-filter), timers
// and a triggering workload — an ordered schedule of typed,
// timestamped events (lab.Workload: withdraw, announce, failover,
// hijack, linkdown/linkup, and migrate for moving an AS into or out
// of the SDN cluster mid-run), with the classic single-event
// lab.Event enum kept as sugar — and returns a uniform lab.Result
// with one measured epoch per scheduled event; a lab.Sweep varies
// one declared axis (SDN count, MRAI, topology size, debounce, regime,
// policy or link loss) across seeded parallel runs; and one
// encoder layer renders every sweep — including the per-epoch rows —
// as a table, CSV, JSON, GitHub-flavored markdown or an SVG boxplot.
// The paper's figures, the policy family on internet-like AS graphs,
// the workload family (maintenance window, cascading failure, Poisson
// churn) and the ablations are declarative lab sweep specs registered
// in internal/figures and exposed by cmd/convergence.
//
// Results are reproducible artifacts, not ephemeral output: a sweep's
// fully-resolved spec serializes canonically (lab.Sweep.Canonical)
// and hashes to a content address, under which internal/artifact
// files one sealed record per (cell, seeded run) — the cache the
// sweep engine consults before executing a cell, so repeated sweeps
// perform zero emulations and interrupted ones resume. The data flow
// is registry → runner → store → report: cmd/labreport regenerates
// the whole evaluation as one self-documenting artifact (REPORT.md
// with a generated section per figure, per-figure SVG boxplots, and a
// sealed machine-readable manifest.json), byte-identical across
// repeated runs, and generates EXPERIMENTS.md's registry reference
// (-experiments-md).
//
// See README.md for the quickstart, ARCHITECTURE.md for the package
// map and layering rules, and EXPERIMENTS.md for the
// paper-versus-measured results. The root-level benchmarks
// (bench_test.go) regenerate every figure and table.
package repro
