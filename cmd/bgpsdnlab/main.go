// Command bgpsdnlab runs a hybrid BGP-SDN emulation scenario script:
// the framework's experiment-lifecycle front end (see package
// scenario for the script language).
//
// Usage:
//
//	bgpsdnlab -f scenario.lab
//	bgpsdnlab < scenario.lab
//	bgpsdnlab -f examples/scenarios/hybrid-tour.lab
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/scenario"
)

// usage prints the full help text: what the command does, every flag
// with its default, and runnable examples against the shipped
// scenarios (mirrored in README.md).
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `bgpsdnlab runs a hybrid BGP-SDN emulation scenario script (.lab file):
configuration directives (topology, sdn, policy, timers), then
lifecycle commands (announce, withdraw, fail, migrate, scheduled
"at ..." workloads, converge, print). See internal/scenario for the
script language and examples/scenarios/ for complete scripts.

Flags:
`)
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(), `
Examples:
  bgpsdnlab -f examples/scenarios/quickstart.lab           # the smallest hybrid network: announce, probe, withdraw
  bgpsdnlab -f examples/scenarios/hybrid-tour.lab          # scripted tour of the paper's experiment
  bgpsdnlab -f examples/scenarios/fig2-point.lab           # one Figure 2 measurement point
  bgpsdnlab -f examples/scenarios/subcluster.lab           # a split cluster reconnects over legacy ASes (paper §2)
  bgpsdnlab -f examples/scenarios/maintenance-window.lab   # scheduled multi-event workload
  bgpsdnlab -f examples/scenarios/path-exploration.lab     # a withdrawal's route-change timeline, path by path
  bgpsdnlab -f examples/scenarios/directive-tour.lab       # policy, damping and link knobs on an internet graph
  bgpsdnlab -f examples/scenarios/chaos-drill.lab          # loss, session reset, controller crash, partition
  bgpsdnlab < examples/scenarios/fig2-point.lab            # the Figure 2 point again, read from stdin
`)
}

func main() {
	flag.Usage = usage
	file := flag.String("f", "", "scenario script file to run (default: read the script from stdin)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bgpsdnlab: unexpected arguments %q (scripts are passed with -f or on stdin)\n\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	in := os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		//lint:errcheck file opened read-only; Close cannot lose buffered writes
		defer f.Close()
		in = f
	}
	script, err := scenario.Parse(in)
	if err != nil {
		fatal(err)
	}
	runner := scenario.NewRunner(os.Stdout)
	if err := runner.Run(script); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgpsdnlab:", err)
	os.Exit(1)
}
