// Command convergence regenerates the paper's evaluation series (see
// EXPERIMENTS.md) through the experiment registry in internal/figures:
// Figure 2's withdrawal sweep, the §4 announcement, fail-over and
// sub-cluster experiments, and the repository's ablations (MRAI,
// topology size, controller debounce, path exploration, flap
// stability), on any topology the generators produce and in any of
// the structured output formats.
//
// Usage:
//
//	convergence -list                          # the experiment registry
//	convergence -exp fig2                      # the paper's Figure 2
//	convergence -exp announce -runs 5
//	convergence -exp failover -format json
//	convergence -exp fig2 -topology grid 4 4   # any generator: clique, line,
//	                                           # ring, star, tree, grid,
//	                                           # internet, er, ba
//	convergence -exp fig2 -placement degree    # SDN placement: last (paper),
//	                                           # first, degree, none, as 2,3
//	convergence -exp fig2 -policy gao-rexford  # routing policy: permit-all
//	                                           # (default), gao-rexford,
//	                                           # prefix-filter
//	convergence -exp vf|policyload|hijack      # the policy figure family
//	convergence -exp maint|cascade|churn       # the workload figure family
//	                                           # (multi-event schedules with
//	                                           # per-epoch rows)
//	convergence -exp fig2 -workload "at 0s withdraw; at 10m announce"
//	                                           # replace the trigger with a
//	                                           # custom schedule (also:
//	                                           # hijack, linkdown/linkup a b,
//	                                           # failover [a b], migrate as)
//	convergence -exp mrai|size|debounce|exploration|flap
//	convergence -exp subcluster                # scripted split experiment
//	convergence -exp fig2 -sdn-counts 0,8,16 -runs 3
//	convergence -exp fig2 -progress            # stream per-run completion
//	convergence -exp fig2 -format csv|json|table|markdown [-svg fig2.svg]
//	convergence -exp fig2 -out results/        # content-addressed artifact
//	                                           # store: completed cells are
//	                                           # cached, so rerunning (or an
//	                                           # interrupted sweep) resumes
//	                                           # instead of recomputing
//	convergence -exp ctrlfail|lossy            # the chaos figure family
//	convergence -exp fig2 -loss 0.05           # drop 5% of messages on every
//	                                           # inter-AS link (seeded per
//	                                           # link: still reproducible)
//	convergence -exp fig2 -delay 20ms -jitter 5ms
//	                                           # a SIGINT/SIGTERM while a
//	                                           # -out sweep runs drains the
//	                                           # in-flight runs, flushes
//	                                           # their records, seals a
//	                                           # partial manifest and exits
//	                                           # cleanly; rerun to resume
//	convergence -exp fig2 -tolerate -retries 1 -wall-limit 2m
//	                                           # failure-tolerant sweep: a
//	                                           # panicking, timed-out or
//	                                           # broken run is recorded as a
//	                                           # cell failure (annotated in
//	                                           # every output format) and
//	                                           # the rest of the grid runs
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/plot"
)

func main() {
	exp := flag.String("exp", "fig2", "experiment name (see -list)")
	list := flag.Bool("list", false, "list the experiment registry and exit")
	topo := flag.String("topology", "", `topology spec, e.g. "clique 16" or "grid 4 4" (default per experiment; trailing args join the spec)`)
	placement := flag.String("placement", "", "SDN placement strategy: last|first|degree for sdn-count sweeps (default last, the paper's deployment); none or as 2,3,... only where the experiment fixes the cluster (e.g. debounce)")
	policyName := flag.String("policy", "", "routing policy template: permit-all|gao-rexford|prefix-filter (default per experiment: permit-all for the classic figures, gao-rexford for vf/hijack)")
	sdnCounts := flag.String("sdn-counts", "", "comma-separated SDN cluster sizes for sdn-count sweeps, e.g. 0,8,16 (default per experiment)")
	workload := flag.String("workload", "", `replace the trigger with a schedule of "at <offset> <event> [target]" clauses separated by ';' (Figure 2 family only; maint/cascade/churn fix their own schedules)`)
	progress := flag.Bool("progress", false, "stream per-run completion to stderr while the sweep runs")
	runs := flag.Int("runs", 0, "runs per point (0 = experiment default; the paper's boxplots use 10)")
	seed := flag.Int64("seed", 1, "base seed")
	mrai := flag.Duration("mrai", 30*time.Second, "BGP MinRouteAdvertisementInterval")
	debounce := flag.Duration("debounce", 100*time.Millisecond, "controller recomputation delay (an explicit 0 disables the delay entirely)")
	parallel := flag.Int("parallel", 0, "concurrent emulation runs (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	format := flag.String("format", "table", "output format: table|csv|json|markdown")
	svg := flag.String("svg", "", "also render the sweep as an SVG boxplot to this file")
	out := flag.String("out", "", "artifact store directory: file every (cell, run) result under the sweep's spec hash and skip cells already stored, so repeated or interrupted sweeps resume instead of recomputing")
	loss := flag.Float64("loss", 0, "per-message loss probability [0,1] on every inter-AS link; each link's loss stream is seeded from the trial seed, so lossy runs stay byte-reproducible")
	delay := flag.Duration("delay", 0, "one-way delay of every inter-AS link (0 keeps the emulator default; per-edge topology delays win)")
	jitter := flag.Duration("jitter", 0, "maximum extra seeded random delay on data-plane probe sends, uniform in [0, jitter]")
	wallLimit := flag.Duration("wall-limit", 0, "wall-clock budget per emulation run: a run over budget fails (with -tolerate, as a recorded cell failure) instead of hanging the sweep")
	tolerate := flag.Bool("tolerate", false, "record per-run failures (panic, timeout, error) and keep sweeping instead of aborting on the first broken run")
	retries := flag.Int("retries", 0, "with -tolerate, retry timed-out runs up to this many times before recording the failure")
	flag.Parse()

	if *list {
		for _, s := range figures.Registry() {
			fmt.Printf("%-12s %s\n", s.Name, s.Title)
		}
		fmt.Printf("%-12s %s\n", "subcluster", "§2 design goal: intra-cluster split survives over legacy paths")
		return
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	f, err := lab.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}

	if *exp == "subcluster" {
		// The split experiment is a scripted sequence, not a sweep:
		// only -mrai and -seed apply, so reject the sweep flags
		// instead of silently dropping them.
		for _, name := range []string{"format", "topology", "placement", "policy", "sdn-counts", "workload", "progress", "runs", "debounce", "parallel", "svg", "out", "loss", "delay", "jitter", "wall-limit", "tolerate", "retries"} {
			if set[name] {
				fatal(fmt.Errorf("-%s does not apply to the subcluster experiment (it is a scripted sequence, not a sweep)", name))
			}
		}
		runSubCluster(*mrai, *seed)
		return
	}

	// The set flags map onto the same string overrides a labd preset
	// submission carries, and resolve through the same function.
	dur := func(name string, d time.Duration) string {
		if !set[name] {
			return ""
		}
		return d.String()
	}
	ov := figures.Overrides{
		Placement: *placement,
		Policy:    *policyName,
		Workload:  *workload,
		Runs:      *runs,
		Seed:      *seed,
		MRAI:      dur("mrai", *mrai),
		Debounce:  dur("debounce", *debounce),
		Loss:      *loss,
		Delay:     dur("delay", *delay),
		Jitter:    dur("jitter", *jitter),
	}
	if set["topology"] {
		// Accept both -topology "grid 4 4" and -topology grid 4 4 (the
		// spec's trailing integers arrive as positional arguments, so
		// an unquoted spec must be the last flag: flag parsing stops at
		// the first positional argument).
		fields := strings.Fields(*topo)
		rest := flag.Args()
		for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
			fields = append(fields, rest[0])
			rest = rest[1:]
		}
		if len(rest) > 0 {
			fatal(fmt.Errorf("arguments after the topology spec are not parsed as flags: %q — quote the spec (-topology %q) or put -topology last", rest, strings.Join(fields, " ")))
		}
		ov.Topology = strings.Join(fields, " ")
	} else if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if set["sdn-counts"] {
		for _, tok := range strings.Split(*sdnCounts, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			k, err := strconv.Atoi(tok)
			if err != nil {
				fatal(fmt.Errorf("bad -sdn-counts entry %q", tok))
			}
			ov.SDNCounts = append(ov.SDNCounts, k)
		}
		if len(ov.SDNCounts) == 0 {
			fatal(fmt.Errorf("-sdn-counts lists no cluster sizes"))
		}
	}
	sweep, err := figures.Resolve(*exp, ov)
	if err != nil {
		fatal(err)
	}

	// Execution knobs: none of them reaches the canonical spec.
	switch {
	case *parallel < 0:
		fatal(fmt.Errorf("-parallel %d is negative (0 = GOMAXPROCS, 1 = sequential)", *parallel))
	case *retries < 0:
		fatal(fmt.Errorf("-retries %d is negative", *retries))
	case *wallLimit < 0:
		fatal(fmt.Errorf("-wall-limit %v is negative", *wallLimit))
	}
	sweep.Parallelism = *parallel
	if *progress {
		sweep.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "progress: %d/%d runs\n", done, total)
		}
	}
	if set["wall-limit"] {
		sweep.Base.WallLimit = *wallLimit
	}
	if *tolerate {
		sweep.Tolerate = true
		sweep.Retries = *retries
	} else if set["retries"] {
		fatal(fmt.Errorf("-retries only applies with -tolerate (a non-tolerant sweep aborts on the first failure)"))
	}

	// Graceful drain: the first SIGINT/SIGTERM stops scheduling new
	// runs and lets in-flight ones finish (with -out their records are
	// flushed and the partial manifest sealed, so rerunning the same
	// command resumes); a second signal force-quits.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "convergence: interrupt — draining in-flight runs (interrupt again to force quit)")
		close(stop)
		<-sigc
		os.Exit(130)
	}()
	sweep.Stop = stop

	var res *lab.SweepResult
	if *out != "" {
		// Through the artifact store: completed cells load from disk,
		// fresh ones are filed, and the sealed manifest is refreshed.
		store, err := artifact.Open(*out)
		if err != nil {
			fatal(err)
		}
		var stats artifact.RunStats
		res, stats, err = artifact.RunSweep(store, sweep)
		if errors.Is(err, lab.ErrStopped) {
			fmt.Fprintf(os.Stderr, "store: spec %.12s — interrupted with %d/%d runs done (%d cached, %d executed); partial manifest sealed — rerun the same command to resume\n",
				stats.SpecHash, stats.Hits+stats.Executed+stats.Failed, stats.Total, stats.Hits, stats.Executed)
			return
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "store: spec %.12s — %d/%d runs cached, %d executed, %d failed\n",
			stats.SpecHash, stats.Hits, stats.Total, stats.Executed, stats.Failed)
	} else {
		res, err = sweep.Run()
		if errors.Is(err, lab.ErrStopped) {
			fmt.Fprintln(os.Stderr, "convergence: interrupted; completed runs are discarded without -out (use -out to make interrupted sweeps resumable)")
			return
		}
		if err != nil {
			fatal(err)
		}
	}
	if n := len(res.Failures); n > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d failed run(s) recorded; see the failure annotations in the output\n", n)
	}
	if err := lab.Write(os.Stdout, f, res); err != nil {
		fatal(err)
	}
	if *svg != "" {
		out, err := os.Create(*svg)
		if err != nil {
			fatal(err)
		}
		cfg := plot.BoxplotConfig{
			Title:  fmt.Sprintf("%s convergence on %s", res.EventLabel(), res.TopoLabel()),
			XLabel: res.Axis.Name(),
			YLabel: "convergence time (s)",
		}
		if res.Axis.Kind == lab.AxisSDNCount {
			cfg.XLabel = "fraction of ASes with centralized route control"
		}
		if err := plot.WriteBoxplot(out, cfg, res.Boxes()); err != nil {
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("# boxplot written to %s\n", *svg)
		// Multi-event workloads: one additional boxplot per scheduled
		// event (the per-epoch view of the same sweep).
		if len(res.Cells) > 0 && len(res.Cells[0].Epochs) > 0 {
			base := strings.TrimSuffix(*svg, ".svg")
			for i, ep := range res.Cells[0].Epochs {
				name := fmt.Sprintf("%s-e%d.svg", base, i)
				out, err := os.Create(name)
				if err != nil {
					fatal(err)
				}
				ecfg := cfg
				ecfg.Title = fmt.Sprintf("epoch %d (@%s %s) convergence on %s", i, ep.At, ep.Kind.Verb(), res.TopoLabel())
				if err := plot.WriteBoxplot(out, ecfg, res.EpochBoxes(i)); err != nil {
					fatal(err)
				}
				if err := out.Close(); err != nil {
					fatal(err)
				}
				fmt.Printf("# epoch boxplot written to %s\n", name)
			}
		}
	}
}

func runSubCluster(mrai time.Duration, seed int64) {
	timers := bgp.DefaultTimers()
	timers.MRAI = mrai
	res, err := figures.SubClusterExperiment(timers, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("reachable before split: %v\n", res.ReachableBeforeSplit)
	fmt.Printf("reachable after split:  %v (over legacy paths)\n", res.ReachableAfterSplit)
	fmt.Printf("re-convergence:         %.3fs\n", res.ReconvergenceTime.Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "convergence:", err)
	os.Exit(1)
}
