// caida-internet runs a hybrid experiment on a measured-data-style
// topology: a synthesized CAIDA-format AS-relationship graph (tier-1
// clique, provider hierarchy, lateral peering) with Gao-Rexford
// valley-free policies, latencies drawn from a synthesized iPlane
// inter-PoP dataset, and an SDN cluster around the tier-1 core.
//
// It demonstrates the framework's dataset pipeline end to end:
// synthesize -> serialize -> parse -> collapse -> annotate -> emulate.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/topology"
)

func main() {
	rng := rand.New(rand.NewSource(2014))

	// 1. Synthesize a CAIDA-style AS relationship graph and round-trip
	//    it through the on-disk format, as if it had been downloaded.
	rel, err := topology.SynthesizeInternetLike(30, rng)
	if err != nil {
		log.Fatal(err)
	}
	var caida bytes.Buffer
	if err := topology.WriteCAIDA(&caida, rel); err != nil {
		log.Fatal(err)
	}
	parsed, err := topology.ReadCAIDA(&caida)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Synthesize iPlane-style PoP measurements for latencies and
	//    collapse them to the AS level.
	pops, err := topology.SynthesizeIPlane(parsed, 3, rng)
	if err != nil {
		log.Fatal(err)
	}
	var iplane bytes.Buffer
	if err := topology.WriteIPlane(&iplane, pops); err != nil {
		log.Fatal(err)
	}
	links, err := topology.ReadIPlane(&iplane)
	if err != nil {
		log.Fatal(err)
	}
	g := topology.CollapseToASGraph(links)
	annotated := topology.AnnotateRelationships(g, parsed)
	fmt.Printf("topology: %d ASes, %d links (%d with relationships)\n",
		g.NumNodes(), g.NumEdges(), annotated)

	// 3. Put the tier-1 clique (AS1..AS3) under the IDR controller.
	members := []idr.ASN{1, 2, 3}
	timers := bgp.DefaultTimers()
	timers.MRAI = 10 * time.Second
	e, err := experiment.New(experiment.Config{
		Seed:       2014,
		Graph:      g,
		SDNMembers: members,
		Policy:     policy.GaoRexford{},
		Timers:     timers,
		Debounce:   500 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := e.Start(); err != nil {
		log.Fatal(err)
	}
	if err := e.WaitEstablished(5 * time.Minute); err != nil {
		log.Fatal(err)
	}
	for _, asn := range e.ASNs() {
		if err := e.Announce(asn); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := e.WaitConverged(2 * time.Hour); err != nil {
		log.Fatal(err)
	}

	reached := 0
	asns := e.ASNs()
	for _, from := range asns {
		ok := true
		for _, to := range asns {
			if !e.Reachable(from, to) {
				ok = false
				break
			}
		}
		if ok {
			reached++
		}
	}
	fmt.Printf("converged: %d/%d ASes reach every prefix (valley-free policies\n", reached, len(asns))
	fmt.Println("  can legitimately hide some stub-to-stub routes)")

	// 4. Withdraw a stub prefix and compare churn at the cluster vs a
	//    legacy transit AS.
	stub := asns[len(asns)-1]
	d, err := e.MeasureConvergence(func() error { return e.Withdraw(stub) }, 2*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("withdrawal of %v's prefix converged in %.3fs\n", stub, d.Seconds())
	fmt.Printf("controller stats: %+v\n", e.Ctrl.Stats())
}
