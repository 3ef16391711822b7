// Command convergence regenerates the paper's evaluation series (see
// EXPERIMENTS.md) through the experiment registry in internal/figures:
// Figure 2's withdrawal sweep, the §4 announcement and fail-over
// experiments, and the repository's ablations (MRAI,
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
//	convergence -exp fig2 -delay 20ms
//	                                           # a SIGINT/SIGTERM while a
//	                                           # -out sweep runs drains the
//	                                           # in-flight runs, flushes
//	                                           # their records, seals a
//	                                           # partial manifest and exits
//	                                           # cleanly; rerun to resume
//	convergence -exp fig2 -tolerate -wall-limit 2m -out results/
//	                                           # failure-tolerant sweep: a
//	                                           # panicking, timed-out or
//	                                           # broken run is recorded as a
//	                                           # cell failure (annotated in
//	                                           # every output format) and
//	                                           # the rest of the grid runs;
//	                                           # rerun with -out to retry
//	                                           # exactly the failed runs
//	convergence -exp fig2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                           # CPU and allocation profiles
//	                                           # for go tool pprof; the
//	                                           # output is unchanged
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/artifact"
	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/profiling"
)

func main() {
	var ov figures.Overrides
	ov.Bind(flag.CommandLine)
	exp := flag.String("exp", "fig2", "experiment name (see -list)")
	list := flag.Bool("list", false, "list the experiment registry and exit")
	progress := flag.Bool("progress", false, "stream per-run completion to stderr while the sweep runs")
	parallel := flag.Int("parallel", 0, "concurrent emulation runs (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	format := flag.String("format", "table", "output format: table|csv|json|markdown")
	svg := flag.String("svg", "", "also render the sweep as an SVG boxplot to this file (multi-event workloads add one <name>-e<N>.svg per epoch)")
	out := flag.String("out", "", "artifact store directory: file every (cell, run) result under the sweep's spec hash and skip cells already stored, so repeated or interrupted sweeps resume instead of recomputing")
	wallLimit := flag.Duration("wall-limit", 0, "wall-clock budget per emulation run: a run over budget fails (with -tolerate, as a recorded cell failure) instead of hanging the sweep")
	tolerate := flag.Bool("tolerate", false, "record per-run failures (panic, timeout, error) and keep sweeping instead of aborting on the first broken run")
	prof := profiling.Bind(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, s := range figures.Registry() {
			fmt.Printf("%-12s %s\n", s.Name, s.Title)
		}
		return
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	f, err := lab.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}
	if set["topology"] {
		// Accept both -topology "grid 4 4" and -topology grid 4 4 (the
		// spec's trailing integers arrive as positional arguments, so
		// an unquoted spec must be the last flag: flag parsing stops at
		// the first positional argument).
		fields := strings.Fields(ov.Topology)
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
	// The same overrides a labd preset submission carries, resolved
	// through the same function.
	sweep, err := figures.Resolve(*exp, ov)
	if err != nil {
		fatal(err)
	}

	// Execution knobs: none of them reaches the canonical spec.
	if *wallLimit < 0 {
		fatal(fmt.Errorf("-wall-limit %v is negative", *wallLimit))
	}
	sweep.Parallelism = *parallel
	if *progress {
		sweep.Progress = func(d lab.RunDone) {
			fmt.Fprintf(os.Stderr, "progress: %d/%d runs\n", d.Done, d.Total)
		}
	}
	sweep.Base.WallLimit = *wallLimit
	sweep.Tolerate = *tolerate

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
		// Multi-event workloads add one boxplot per scheduled event (the
		// per-epoch view of the same sweep) beside the main one.
		svgs, err := res.Boxplots("")
		if err != nil {
			fatal(err)
		}
		for _, s := range svgs {
			name, what := *svg, "boxplot"
			if s.Suffix != "" {
				name, what = strings.TrimSuffix(*svg, ".svg")+s.Suffix+".svg", "epoch boxplot"
			}
			if err := os.WriteFile(name, s.Data, 0o666); err != nil {
				fatal(err)
			}
			fmt.Printf("# %s written to %s\n", what, name)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "convergence:", err)
	os.Exit(1)
}
