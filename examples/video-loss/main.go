// video-loss recreates the paper's demo payload: "showing visually how
// [SDN centralization] affects an end-to-end video application under
// different scenarios". A steady probe stream (the video stand-in)
// runs from a client AS to a server AS while the routing system is
// perturbed; packet loss during re-convergence is the user-visible
// glitch.
//
// Scenario: a 6-AS ring. The server's prefix is reachable both ways
// around the ring; the best-path link fails mid-stream. The run
// compares the blackout under pure BGP against a deployment where
// half the ring is an SDN cluster.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/topology"
)

const (
	client     = idr.ASN(1)
	server     = idr.ASN(4) // opposite side of the ring
	probeEvery = 50 * time.Millisecond
	streamFor  = 60 * time.Second
)

func run(members []idr.ASN) (loss float64, blackout time.Duration, err error) {
	g, err := topology.Ring(6)
	if err != nil {
		return 0, 0, err
	}
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	e, err := experiment.New(experiment.Config{
		Seed:       7,
		Graph:      g,
		SDNMembers: members,
		Timers:     timers,
		Debounce:   200 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := e.Start(); err != nil {
		return 0, 0, err
	}
	if err := e.WaitEstablished(5 * time.Minute); err != nil {
		return 0, 0, err
	}
	for _, asn := range e.ASNs() {
		if err := e.Announce(asn); err != nil {
			return 0, 0, err
		}
	}
	if _, err := e.WaitConverged(time.Hour); err != nil {
		return 0, 0, err
	}

	// Start the "video" stream: one probe every 50ms, client -> server.
	before := e.Probes.TotalLoss()
	var stream sim.Timer
	stream = e.K.AfterFunc(probeEvery, func() {
		_ = e.InjectProbe(client, server)
		stream.Reset(probeEvery)
	})

	// Let the stream run cleanly. A bystander withdrawal two seconds
	// before the failure consumes every router's free advertisement
	// slot, so the repair updates for the real failure queue behind
	// the MRAI — the bursty condition BGP handles badly. Then break
	// the link in the middle of the client's path (AS3-AS4): the
	// upstream ASes keep forwarding into the dead branch until the
	// MRAI-paced withdrawals arrive, while the controller (when AS2
	// and AS3 are cluster switches) reprograms flows after one
	// debounce window.
	if err := e.RunFor(8 * time.Second); err != nil {
		return 0, 0, err
	}
	if err := e.Withdraw(5); err != nil { // bystander churn
		return 0, 0, err
	}
	if err := e.RunFor(2 * time.Second); err != nil {
		return 0, 0, err
	}
	if _, ok := e.BestPath(client, server); !ok {
		return 0, 0, fmt.Errorf("client has no route before failure")
	}
	if err := e.FailLink(3, 4); err != nil {
		return 0, 0, err
	}
	if err := e.RunFor(streamFor - 10*time.Second); err != nil {
		return 0, 0, err
	}
	stream.Stop()
	// Drain in-flight probes.
	if err := e.RunFor(2 * time.Second); err != nil {
		return 0, 0, err
	}

	after := e.Probes.TotalLoss()
	stats := monitor.ProbeStats{Sent: after.Sent - before.Sent, Delivered: after.Delivered - before.Delivered}
	lost := stats.Sent - stats.Delivered
	return stats.Loss(), time.Duration(lost) * probeEvery, nil
}

func main() {
	fmt.Printf("streaming %v of probes (%v apart) across a 6-AS ring;\n", streamFor, probeEvery)
	fmt.Println("the mid-path link AS3-AS4 fails 10s in")
	fmt.Println()

	loss, blackout, err := run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pure BGP:        loss %5.1f%%  (~%v of dead air)\n",
		100*loss, blackout.Round(50*time.Millisecond))

	loss, blackout, err = run([]idr.ASN{2, 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("half-ring SDN:   loss %5.1f%%  (~%v of dead air)\n",
		100*loss, blackout.Round(50*time.Millisecond))
}
