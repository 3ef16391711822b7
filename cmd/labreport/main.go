// Command labreport regenerates the repository's evaluation as a
// single self-documenting artifact: it walks the internal/figures
// registry, runs (or cache-loads) every figure through the
// content-addressed artifact store, and emits REPORT.md with one
// section per figure (the registry's own names, titles and
// descriptions become the documentation), one SVG boxplot per figure
// (plus per-epoch boxplots for multi-event workloads), and a sealed,
// machine-readable manifest.json.
//
// The output is deterministic: no timestamps, no host information —
// running the same profile twice into the same -out directory
// performs zero emulations the second time (every cell is served from
// the store) and rewrites byte-identical REPORT.md, manifest.json and
// SVGs. An interrupted run resumes from the records already on disk.
//
// Usage:
//
//	labreport -out report                 # full profile: every registry figure
//	labreport -out report -profile smoke  # small CI profile (grid + internet-40)
//	labreport -out report -parallel 4     # bound concurrent emulation runs
//	labreport -check report               # validate manifest + store seals
//	labreport -out report -profile smoke -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                      # CPU and allocation profiles
//	labreport -experiments-md             # print the generated EXPERIMENTS.md
//	                                      # registry block and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/profiling"
)

func main() {
	out := flag.String("out", "report", "output directory: REPORT.md, manifest.json, figures/*.svg and the store/ artifact cache")
	profile := flag.String("profile", "full", "figure profile: full (every registry figure) or smoke (grid + internet-40 subset for CI)")
	parallel := flag.Int("parallel", 0, "concurrent emulation runs (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	expMD := flag.Bool("experiments-md", false, "print the generated EXPERIMENTS.md registry block to stdout and exit")
	check := flag.String("check", "", "validate an existing report directory (manifest schema, seal, store digests, emitted files) and exit")
	prof := profiling.Bind(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	if *expMD {
		if err := writeExperimentsMD(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *check != "" {
		if err := checkReport(*check); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: manifest and store verify\n", *check)
		return
	}
	jobs, ok := profiles[*profile]
	if !ok {
		names := slices.Sorted(maps.Keys(profiles))
		fatal(fmt.Errorf("unknown profile %q (have %s)", *profile, strings.Join(names, ", ")))
	}
	if err := generate(*out, *profile, jobs, *parallel, os.Stdout); err != nil {
		fatal(err)
	}
}

// job is one figure of a report profile: a registry name, the options
// that resolve it, and an optional configuration note for the report.
type job struct {
	name string
	opts figures.Options
	note string
}

// pinOptions is the EXPERIMENTS.md scientific-pin configuration for
// the Figure 2 family: five axis points, three runs per point, seed 1
// — the exact sweep TestFig2PaperConfigEquivalence pins to
// s-pure-median 350.284, slope -369.785 and r² 0.989.
func pinOptions() figures.Options {
	return figures.Options{SDNCounts: []int{0, 4, 8, 12, 16}, Runs: 3, BaseSeed: 1}
}

const pinNote = "Configuration: the EXPERIMENTS.md scientific-pin setup " +
	"(axis 0,4,8,12,16; 3 runs/point; seed 1), so the report reproduces the pinned metrics exactly."

// profiles names the report profiles. Every job must resolve and run
// with no interactive input; order is presentation order.
var profiles = map[string][]job{
	"full": {
		{name: "fig2", opts: pinOptions(), note: pinNote},
		{name: "announce", opts: pinOptions(), note: pinNote},
		{name: "failover", opts: pinOptions(), note: pinNote},
		{name: "vf", opts: figures.Options{BaseSeed: 1}},
		{name: "policyload", opts: figures.Options{BaseSeed: 1}},
		{name: "hijack", opts: figures.Options{BaseSeed: 1}},
		{name: "maint", opts: figures.Options{BaseSeed: 1}},
		{name: "cascade", opts: figures.Options{BaseSeed: 1}},
		{name: "churn", opts: figures.Options{BaseSeed: 1}},
		{name: "mrai", opts: figures.Options{BaseSeed: 1}},
		{name: "size", opts: figures.Options{BaseSeed: 1}},
		{name: "debounce", opts: figures.Options{BaseSeed: 1}},
		{name: "exploration", opts: figures.Options{BaseSeed: 1}},
		{name: "flap", opts: figures.Options{BaseSeed: 1}},
	},
	"smoke": {
		{name: "fig2",
			opts: figures.Options{Topo: &lab.TopoSpec{Kind: "grid", N: 3, M: 3}, Runs: 1, BaseSeed: 1, MRAI: 5 * time.Second},
			note: "Smoke configuration: 3×3 grid, 1 run/point, 5s MRAI — the CI-sized stand-in for the 16-AS clique."},
		{name: "vf",
			opts: figures.Options{Topo: &lab.TopoSpec{Kind: "internet", N: 40}, Runs: 1, BaseSeed: 1},
			note: "Smoke configuration: 40-AS internet-like graph, 1 run/point."},
		{name: "hijack",
			opts: figures.Options{Topo: &lab.TopoSpec{Kind: "internet", N: 40}, Runs: 1, BaseSeed: 1},
			note: "Smoke configuration: 40-AS internet-like graph, 1 run/point."},
	},
}

// generate runs (or cache-loads) every job of the profile and writes
// REPORT.md, manifest.json and the SVGs into out. log receives one
// progress line per figure plus the cache summary.
func generate(out, profileName string, jobs []job, parallel int, log io.Writer) error {
	store, err := artifact.Open(filepath.Join(out, "store"))
	if err != nil {
		return err
	}
	figDir := filepath.Join(out, "figures")
	if err := os.MkdirAll(figDir, 0o755); err != nil {
		return err
	}

	var body strings.Builder
	manifest := &artifact.ReportManifest{
		Version:   1,
		Generator: "labreport",
		Profile:   profileName,
	}
	totalCells, totalHits := 0, 0
	var toc strings.Builder
	for _, j := range jobs {
		spec, ok := figures.Lookup(j.name)
		if !ok {
			return fmt.Errorf("labreport: unknown experiment %q", j.name)
		}
		opts := j.opts
		opts.Parallelism = parallel
		sweep, err := spec.Build(opts)
		if err != nil {
			return fmt.Errorf("labreport: %s: %w", j.name, err)
		}
		res, stats, err := artifact.RunSweep(store, sweep)
		if err != nil {
			return fmt.Errorf("labreport: %s: %w", j.name, err)
		}
		totalCells += stats.Total
		totalHits += stats.Hits
		fmt.Fprintf(log, "%-12s spec %.12s  %d/%d runs cached, %d executed\n",
			j.name, stats.SpecHash, stats.Hits, stats.Total, stats.Executed)

		svgs, err := writeFigureSVGs(figDir, j.name, stats.SpecHash, res)
		if err != nil {
			return err
		}
		fmt.Fprintf(&toc, "- [`%s`](#%s) — %s\n", j.name, j.name, spec.Title)
		if err := writeSection(&body, spec, j.note, stats, res, svgs); err != nil {
			return err
		}
		manifest.Figures = append(manifest.Figures, manifestFigure(spec, stats, res, svgs))
	}

	var report strings.Builder
	report.WriteString("# Lab report — hybrid BGP/SDN evaluation\n\n")
	fmt.Fprintf(&report, "Profile `%s`: %d figures regenerated from the `internal/figures` registry by `labreport`.\n",
		profileName, len(jobs))
	report.WriteString(`This file, the SVGs under ` + "`figures/`" + ` and ` + "`manifest.json`" + ` are generated —
edit the registry, not the report. Every cell is archived in the
content-addressed store next to it (` + "`store/<spec-sha256>/`" + `: the
canonical spec, one sealed record per seeded run, a sealed manifest),
so every number here is traceable to a re-runnable configuration and
rerunning the same command reproduces this file byte for byte with
zero emulations.

Source paper: Gämperli, Kotronis & Dimitropoulos, *An Open-Source
Emulation Framework for Evaluating Hybrid BGP/SDN Internet Routing*
(SIGCOMM'14 demo). See EXPERIMENTS.md for the benchmark mapping and
ARCHITECTURE.md for the package map.

## Contents

`)
	report.WriteString(toc.String())
	report.WriteString("\n")
	report.WriteString(body.String())

	if err := artifact.WriteFileAtomic(filepath.Join(out, "REPORT.md"), []byte(report.String())); err != nil {
		return err
	}
	data, err := manifest.Encode()
	if err != nil {
		return err
	}
	if err := artifact.ValidateReportManifest(data); err != nil {
		return fmt.Errorf("labreport: generated manifest does not validate: %w", err)
	}
	if err := artifact.WriteFileAtomic(filepath.Join(out, "manifest.json"), data); err != nil {
		return err
	}
	pct := 0.0
	if totalCells > 0 {
		pct = 100 * float64(totalHits) / float64(totalCells)
	}
	fmt.Fprintf(log, "report: %d figures, %d runs, %d cached (%.0f%% cache hits)\n",
		len(jobs), totalCells, totalHits, pct)
	fmt.Fprintf(log, "wrote %s, %s and %s\n",
		filepath.Join(out, "REPORT.md"), filepath.Join(out, "manifest.json"), figDir)
	return nil
}

// writeSection renders one figure's report section: heading, registry
// metadata, spec echo, the markdown table, and the SVG references.
func writeSection(w *strings.Builder, spec figures.Spec, note string, stats artifact.RunStats, res *lab.SweepResult, svgs []string) error {
	fmt.Fprintf(w, "## %s\n\n", spec.Name)
	fmt.Fprintf(w, "**%s**\n\n", spec.Title)
	if spec.Desc != "" {
		fmt.Fprintf(w, "%s\n\n", spec.Desc)
	}
	if note != "" {
		fmt.Fprintf(w, "%s\n\n", note)
	}
	fmt.Fprintf(w, "- topology `%s` · policy `%s` · trigger `%s` · axis `%s` · %d runs/point · seed %d\n",
		res.TopoLabel(), res.PolicyLabel(), res.EventLabel(), res.Axis.Name(), res.Runs, res.BaseSeed)
	fmt.Fprintf(w, "- spec `sha256:%s`\n", stats.SpecHash)
	fmt.Fprintf(w, "- store `store/%s/` (%d records)\n\n", stats.SpecHash, stats.Total)
	if err := lab.Write(w, lab.FormatMarkdown, res); err != nil {
		return err
	}
	w.WriteString("\n")
	for i, svg := range svgs {
		alt := spec.Name
		if i > 0 {
			alt = fmt.Sprintf("%s epoch %d", spec.Name, i-1)
		}
		fmt.Fprintf(w, "![%s boxplot](%s)\n", alt, filepath.ToSlash(svg))
	}
	w.WriteString("\n")
	return nil
}

// writeFigureSVGs renders the sweep's boxplot (and one per-epoch
// boxplot per scheduled event of a multi-event workload) into dir and
// returns the emitted paths relative to the report root.
func writeFigureSVGs(dir, name, specHash string, res *lab.SweepResult) ([]string, error) {
	svgs, err := res.Boxplots(fmt.Sprintf("spec sha256:%.12s", specHash))
	if err != nil {
		return nil, err
	}
	rels := make([]string, len(svgs))
	for i, s := range svgs {
		file := name + s.Suffix + ".svg"
		if err := artifact.WriteFileAtomic(filepath.Join(dir, file), s.Data); err != nil {
			return nil, err
		}
		rels[i] = filepath.Join("figures", file)
	}
	return rels, nil
}

// manifestFigure builds one figure's manifest entry.
func manifestFigure(spec figures.Spec, stats artifact.RunStats, res *lab.SweepResult, svgs []string) artifact.ReportFigure {
	f := artifact.ReportFigure{
		Name:       spec.Name,
		Title:      spec.Title,
		SpecSHA256: stats.SpecHash,
		Topology:   res.TopoLabel(),
		Policy:     res.PolicyLabel(),
		Event:      res.EventLabel(),
		Axis:       res.Axis.Name(),
		Runs:       res.Runs,
		BaseSeed:   res.BaseSeed,
		SVG:        filepath.ToSlash(svgs[0]),
	}
	for _, svg := range svgs[1:] {
		f.EpochSVGs = append(f.EpochSVGs, filepath.ToSlash(svg))
	}
	for _, c := range res.Cells {
		f.Cells = append(f.Cells, artifact.ReportCell{
			Label:       c.Label,
			N:           c.Summary.N,
			MedianS:     c.Summary.Median,
			MeanUpdates: c.MeanUpdatesSent,
		})
	}
	if a, b, r2, ok := res.Fit(); ok {
		f.Fit = &artifact.ReportFit{InterceptS: a, SlopeS: b, R2: r2}
	}
	return f
}

// checkReport validates an existing report directory: the manifest
// against its schema and seal, every referenced store directory
// against its sealed sweep manifest, and the referenced SVGs exist.
func checkReport(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	if err := artifact.ValidateReportManifest(data); err != nil {
		return err
	}
	var m artifact.ReportManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for _, f := range m.Figures {
		if err := artifact.VerifySweepDir(filepath.Join(dir, "store", f.SpecSHA256)); err != nil {
			return fmt.Errorf("figure %s: %w", f.Name, err)
		}
		for _, svg := range append([]string{f.SVG}, f.EpochSVGs...) {
			if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(svg))); err != nil {
				return fmt.Errorf("figure %s: %w", f.Name, err)
			}
		}
	}
	return nil
}

// writeExperimentsMD prints the generated EXPERIMENTS.md registry
// block: one entry per registry spec with its resolved default
// configuration, bracketed by markers the CI drift check keys on.
func writeExperimentsMD(w io.Writer) error {
	fmt.Fprintln(w, experimentsMDBegin)
	fmt.Fprintf(w, "The registry holds %d experiments (`convergence -list` prints the same\nset; `labreport` renders every one into REPORT.md). Each entry below\nshows the spec's resolved defaults at seed 1; every flag the CLI\naccepts overrides them per run.\n", len(figures.Registry()))
	for _, spec := range figures.Registry() {
		sweep, err := spec.Build(figures.Options{BaseSeed: 1})
		if err != nil {
			return fmt.Errorf("labreport: %s: %w", spec.Name, err)
		}
		res := &lab.SweepResult{
			Name:     sweep.Name,
			Event:    sweep.Base.Event,
			Workload: sweep.Base.Workload,
			Topo:     sweep.Base.Topo,
			Policy:   sweep.Base.Policy,
			Axis:     sweep.Axis,
		}
		runs := sweep.Runs
		if runs <= 0 {
			runs = 1
		}
		labels := make([]string, sweep.Axis.Len())
		for i := range labels {
			labels[i] = sweep.Axis.Label(i)
		}
		fmt.Fprintf(w, "\n- **`%s`** — %s.\n", spec.Name, spec.Title)
		fmt.Fprintf(w, "  Default: trigger `%s` on `%s`, policy `%s`, axis `%s` (%s), %d runs/point.\n",
			res.EventLabel(), res.TopoLabel(), res.PolicyLabel(), sweep.Axis.Name(), strings.Join(labels, ", "), runs)
		if spec.Desc != "" {
			fmt.Fprintf(w, "  %s\n", spec.Desc)
		}
	}
	fmt.Fprintln(w, experimentsMDEnd)
	return nil
}

// Markers bracketing the generated registry block in EXPERIMENTS.md.
const (
	experimentsMDBegin = "<!-- BEGIN GENERATED: experiment registry (labreport -experiments-md; do not edit by hand) -->"
	experimentsMDEnd   = "<!-- END GENERATED: experiment registry -->"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "labreport:", err)
	os.Exit(1)
}
