// Quickstart: build the smallest interesting hybrid experiment — the
// components of the paper's Figure 1 in miniature. A four-AS line
// where the middle two ASes form an SDN cluster under the IDR
// controller, with a route collector watching the legacy routers:
//
//	AS1 (BGP) — AS2 (SDN) — AS3 (SDN) — AS4 (BGP)
//	                 \         /
//	            controller + cluster BGP speaker
//
// The example announces every AS's prefix, waits for convergence,
// verifies end-to-end connectivity with probes, then withdraws one
// prefix and prints the route-change timeline.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/topology"
)

func main() {
	g, err := topology.Line(4)
	if err != nil {
		log.Fatal(err)
	}
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second // keep the demo snappy

	e, err := experiment.New(experiment.Config{
		Seed:          42,
		Graph:         g,
		SDNMembers:    []idr.ASN{2, 3},
		Timers:        timers,
		Debounce:      200 * time.Millisecond,
		WithCollector: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The timeline printed at the end needs the AS paths of every
	// best-route change, which the log keeps only when asked.
	e.Log.RecordPaths()
	if err := e.Start(); err != nil {
		log.Fatal(err)
	}
	if err := e.WaitEstablished(2 * time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Println("sessions established (legacy BGP + cluster speaker + collector)")

	for _, asn := range e.ASNs() {
		if err := e.Announce(asn); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Println("network converged; best paths toward AS4:")
	for _, asn := range e.ASNs() {
		if asn == 4 {
			continue
		}
		path, ok := e.BestPath(asn, 4)
		fmt.Printf("  %v: [%v] (ok=%v)\n", asn, path, ok)
	}

	// End-to-end connectivity check, the framework's ping equivalent.
	for _, pair := range [][2]idr.ASN{{1, 4}, {4, 1}, {1, 3}, {2, 4}} {
		if err := e.InjectProbe(pair[0], pair[1]); err != nil {
			log.Fatal(err)
		}
	}
	if err := e.RunFor(time.Second); err != nil {
		log.Fatal(err)
	}
	total := e.Probes.TotalLoss()
	fmt.Printf("probes: sent=%d delivered=%d loss=%.0f%%\n",
		total.Sent, total.Delivered, 100*total.Loss())

	// Withdraw AS4's prefix and watch the change ripple.
	d, err := e.MeasureConvergence(func() error { return e.Withdraw(4) }, time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("withdrawal of AS4's prefix converged in %.3fs\n", d.Seconds())

	pfx, _ := e.OriginPrefix(4)
	fmt.Println("route-change timeline for", pfx, "(legacy routers):")
	if err := e.Log.WriteTimeline(os.Stdout, pfx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collector recorded %d updates\n", len(e.Coll.Records()))
}
