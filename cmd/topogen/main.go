// Command topogen generates AS-level topologies in the framework's
// supported dataset formats: CAIDA AS relationships, iPlane inter-PoP
// links, and Graphviz DOT.
//
// Usage:
//
//	topogen -topology "clique 16" -format dot
//	topogen -topology "internet 200" -seed 7 -format caida > as-rel.txt
//	topogen -topology "internet 50" -format iplane -pops 3 > pops.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/lab"
	"repro/internal/topology"
)

// usage prints the full help text: what the command does, every flag
// with its default, and runnable examples (mirrored in README.md).
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `topogen generates an AS-level topology (with CAIDA-style business
relationships) and writes it in one of the framework's dataset
formats: Graphviz DOT for inspection, CAIDA AS-relationships for the
topology readers, or synthesized iPlane inter-PoP links. The topology
is a spec in the syntax of convergence -topology and the scenario DSL.
The random generators (er, ba, internet) are seeded and deterministic:
the same -seed always emits the same graph.

Flags:
`)
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(), `
Examples:
  topogen -topology "clique 16" -format dot                 # the paper's Figure 2 mesh, DOT
  topogen -topology "tree 15 2" -labels                     # provider hierarchy with P2C/P2P edge labels
  topogen -topology "grid 4 4" -format dot                  # 4x4 peer lattice
  topogen -topology "internet 200" -seed 7 -format caida > as-rel.txt   # CAIDA-format internet-like graph
  topogen -topology "er 32 0.2" -seed 3 -format dot         # seeded Erdős–Rényi peer graph
  topogen -topology "ba 64 2" -format dot                   # Barabási–Albert preferential attachment
  topogen -topology "internet 50" -format iplane -pops 3 > pops.txt     # synthesized iPlane PoP links
`)
}

func main() {
	flag.Usage = usage
	topo := flag.String("topology", "clique 16", `topology spec: clique|line|ring|star|internet N, tree N F, grid W H, er N P, ba N M`)
	seed := flag.Int64("seed", 1, "seed for the random generators (er, ba, internet); same seed, same graph")
	format := flag.String("format", "dot", "output format: dot (Graphviz), caida (AS relationships), iplane (inter-PoP links)")
	pops := flag.Int("pops", 3, "max PoPs synthesized per AS (-format iplane only)")
	labels := flag.Bool("labels", false, "annotate DOT edges with their business relationship (p2p/p2c)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "topogen: unexpected arguments %q (quote the -topology spec)\n\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if err := write(os.Stdout, *topo, *seed, *format, *pops, *labels); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

// write builds the topology spec on the seed's random stream and
// renders it to w in the named format.
func write(w io.Writer, spec string, seed int64, format string, pops int, labels bool) error {
	t, err := lab.ParseTopoString(spec)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	g, err := t.Build(rng)
	if err != nil {
		return err
	}
	switch format {
	case "dot":
		return topology.WriteDOT(w, g, topology.DOTOptions{EdgeLabels: labels})
	case "caida":
		return topology.WriteCAIDA(w, g)
	case "iplane":
		links, err := topology.SynthesizeIPlane(g, pops, rng)
		if err != nil {
			return err
		}
		return topology.WriteIPlane(w, links)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
