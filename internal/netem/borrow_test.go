package netem_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// lender is a transport wrapper: the clock a network posts its
// deliveries to, which hashes every frame as Send puts it in flight,
// checks it again as it lands and once the receiving node's handler
// has returned, and then, when scribble is set, overwrites it — as the
// next frame the delivery carries would.
type lender struct {
	*sim.Kernel
	t        *testing.T
	scribble bool
	arrivals map[string]int // receiving node -> frames
}

type lentFrame struct {
	lender  *lender
	deliver sim.Firer
	to      string
	data    []byte
	sum     uint64
}

func sum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

func (w *lender) Post(d time.Duration, f sim.Firer) {
	to, data, ok := netem.InFlight(f)
	if !ok {
		w.Kernel.Post(d, f)
		return
	}
	w.arrivals[to.Name()]++
	w.Kernel.Post(d, &lentFrame{lender: w, deliver: f, to: to.Name(), data: data, sum: sum(data)})
}

func (lf *lentFrame) Fire() {
	lf.check("in flight")
	lf.deliver.Fire() // the link's verdict, then the receiving node's handler
	lf.check("while its handler ran")
	if lf.lender.scribble {
		for i := range lf.data {
			lf.data[i] = ^lf.data[i]
		}
	}
}

func (lf *lentFrame) check(when string) {
	if got := sum(lf.data); got != lf.sum {
		lf.lender.t.Errorf("frame to %s (%d bytes) changed %s", lf.to, len(lf.data), when)
		lf.sum = got
	}
}

// borrowedRun runs the paper's unit at half SDN — clique 8, K=4, with
// the routers' processing queue on, so legacy routers, member switches
// (the PacketIn relay) and the controller (the PacketOut relay) all
// receive — on a lender clock, and renders what the run produced: the
// measured convergence, the kernel's event count, the traffic and
// UPDATE totals, each router's summary, the withdrawn prefix's
// timeline and every AS's best path to every destination.
func borrowedRun(t *testing.T, scribble bool) string {
	t.Helper()
	g, err := topology.Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := experiment.New(experiment.Config{
		Seed:            1,
		Graph:           g,
		SDNMembers:      []idr.ASN{5, 6, 7, 8},
		ProcessingDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &lender{Kernel: e.K, t: t, scribble: scribble, arrivals: make(map[string]int)}
	e.Net.SetClock(w)
	e.Log.RecordPaths()
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step(e.Start())
	step(e.WaitEstablished(2 * time.Minute))
	for _, asn := range e.ASNs() {
		step(e.Announce(asn))
	}
	_, err = e.WaitConverged(time.Hour)
	step(err)
	took, err := e.MeasureConvergence(func() error { return e.Withdraw(1) }, time.Hour)
	step(err)
	for _, node := range []string{"AS1", "AS5", experiment.ControllerNodeName} {
		if w.arrivals[node] == 0 {
			t.Errorf("no frame was sent to %s: the run does not cover that receiver (%v)", node, w.arrivals)
		}
	}

	var out strings.Builder
	delivered, dropped, bytes := e.Traffic()
	sent, recv := e.UpdateTotals()
	fmt.Fprintf(&out, "converged in %v after %d events; %d frames delivered, %d dropped, %d bytes; %d UPDATEs sent, %d received\n",
		took, e.K.Events(), delivered, dropped, bytes, sent, recv)
	for _, asn := range e.ASNs() {
		if r, ok := e.Routers[asn]; ok {
			fmt.Fprintf(&out, "%v %+v\n", asn, r.Stats())
		}
	}
	prefix, err := e.OriginPrefix(1)
	step(err)
	step(e.Log.WriteTimeline(&out, prefix))
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			path, ok := e.BestPath(from, to)
			fmt.Fprintf(&out, "AS%d→AS%d %v %v\n", from, to, ok, path)
		}
	}
	return out.String()
}

// TestFramesAreBorrowed holds the network and every receiver to the
// borrowed-frame contract on borrowedRun's run. No frame may change
// while in flight or while its handler runs — a delivery handed back
// before its handler returned would carry the answer a handler sends
// on the spot (a switch's PacketIn) over the frame being read — and a
// run whose every frame is overwritten once its handler returns must
// produce exactly what an untouched run does: a receiver that kept the
// borrowed slice (the routers' processing queue, say) would read the
// scribbled bytes.
func TestFramesAreBorrowed(t *testing.T) {
	plain := borrowedRun(t, false)
	scribbled := borrowedRun(t, true)
	if scribbled != plain {
		t.Errorf("overwriting each frame once its handler returned changed the run:\n--- untouched\n%s--- overwritten\n%s", plain, scribbled)
	}
	t.Logf("%s", plain[:strings.IndexByte(plain, '\n')])
}
