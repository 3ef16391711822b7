// Command labbench is the repository's benchmark: six workloads over
// the emulator's public API, six end-to-end metrics measured with
// tracing off, and a traced pass that takes the layers apart from
// outside. BENCHMARK.json at the repo root declares it; README.md in
// this directory is the glossary.
//
//	labbench -workload W [-seed S] [-seconds N] [-trace 0|1] [-spans F]
//	    one run of one workload; the last stdout line is the result
//	labbench -out set.json [-runs R] [-seed S] [-seconds N]
//	    every workload, R untraced runs and one traced run each,
//	    every run in a child process of its own, one after another
//	labbench -compare a.json b.json
//	    two sets against the declared bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	fs := flag.NewFlagSet("labbench", flag.ExitOnError)
	workload := fs.String("workload", "", "run this one workload (see BENCHMARK.json for the names)")
	seed := fs.Int64("seed", 1, "run seed: op i runs with Trial.Seed = seed+i")
	seconds := fs.Int("seconds", 10, "how long the untraced pass keeps running ops")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and its per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1: write the spans to this file as JSONL")
	out := fs.String("out", "", "run every workload and write the set to this file")
	runs := fs.Int("runs", 3, "with -out: untraced runs per workload, seeds seed..seed+runs-1")
	compare := fs.Bool("compare", false, "compare two sets: labbench -compare a.json b.json")
	// ExitOnError: Parse only returns nil.
	_ = fs.Parse(os.Args[1:])

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare takes two set files")
			break
		}
		var ok bool
		if ok, err = compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout); err == nil && !ok {
			os.Exit(1)
		}
	case *out != "":
		err = runSet(*out, *seed, *seconds, *runs, os.Stdout)
	case *workload != "":
		err = runOne(*workload, runOptions{
			seed:   *seed,
			budget: time.Duration(*seconds) * time.Second,
			trace:  *trace != 0,
			kernel: 100 * time.Millisecond,
			spans:  *spans,
		}, os.Stdout)
	default:
		fs.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "labbench:", err)
		os.Exit(1)
	}
}

// resultLine is the contract's last stdout line.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detailPrefix marks the stdout line that carries the whole report
// (digest and sample count included) for -out to collect.
const detailPrefix = "detail "

// runOne runs one workload once and prints every metric by name with
// its unit, the detail line, and last the result line.
func runOne(name string, o runOptions, out io.Writer) error {
	var sp *spec
	for _, s := range workloads(full) {
		if s.name == name {
			sp = &s
			break
		}
	}
	if sp == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	host := hostStamp()
	fmt.Fprintf(out, "labbench %s seed=%d seconds=%v trace=%v  %s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		name, o.seed, o.budget.Seconds(), o.trace, host.GoVersion, host.GoMaxProcs, host.NumCPU, host.CPU)
	rep, err := run(*sp, o, out)
	if err != nil {
		return err
	}
	printReport(out, rep)
	detail, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n", detailPrefix, detail)
	line, err := json.Marshal(resultLine{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printReport lists the run's metrics in declaration order.
func printReport(out io.Writer, rep *report) {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rep.Metrics[d.name]
		note := ""
		if d.name == "op_wall_ms_p50" {
			note = fmt.Sprintf("  (n=%d)", rep.Samples)
		}
		fmt.Fprintf(out, "  %-36s %16.4f %-6s%s\n", d.name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(out, "  %-36s %s  (first %d ops)\n", "sim_digest", rep.Digest, rep.DigestOps)
	fmt.Fprintf(out, "  ops attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	sort.Strings(rep.Errors)
	for _, e := range rep.Errors {
		fmt.Fprintf(out, "  FAILED: %s\n", e)
	}
}
