package netem_test

import (
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// frameWatch is a transport wrapper: the clock a network posts its
// deliveries to, which hashes every frame as Send puts it in flight and
// again once the receiving node's handler has returned.
type frameWatch struct {
	*sim.Kernel
	t      *testing.T
	frames []*watchedFrame
}

type watchedFrame struct {
	watch   *frameWatch
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

func (w *frameWatch) Post(d time.Duration, f sim.Firer) {
	to, data, ok := netem.InFlight(f)
	if !ok {
		w.Kernel.Post(d, f)
		return
	}
	wf := &watchedFrame{watch: w, deliver: f, to: to.Name(), data: data, sum: sum(data)}
	w.frames = append(w.frames, wf)
	w.Kernel.Post(d, wf)
}

func (wf *watchedFrame) Fire() {
	wf.deliver.Fire() // the link's verdict, then the receiving node's handler
	wf.check("by the time its handler returned")
}

func (wf *watchedFrame) check(when string) {
	if got := sum(wf.data); got != wf.sum {
		wf.watch.t.Errorf("frame to %s (%d bytes) was written to %s", wf.to, len(wf.data), when)
		wf.sum = got
	}
}

// TestFramesAreImmutableOnceSent runs the paper's unit at half SDN —
// clique 8, K=4, with the routers' processing queue on, so legacy
// routers, member switches and the controller's PacketIn → speaker
// path all receive — and requires
// every frame to hash the same when it is sent, when its handler
// returns, and when the run is over. Sessions share one KEEPALIVE
// frame, so a receiver that decoded in place or a sender that reused
// its buffer would corrupt traffic it never touched.
func TestFramesAreImmutableOnceSent(t *testing.T) {
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
	w := &frameWatch{Kernel: e.K, t: t}
	e.Net.SetClock(w)
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
	_, err = e.MeasureConvergence(func() error { return e.Withdraw(1) }, time.Hour)
	step(err)

	arrivals := make(map[string]int) // receiving node -> frames
	sends := make(map[*byte]int)     // backing array -> times sent
	for _, wf := range w.frames {
		wf.check("after its handler had returned")
		arrivals[wf.to]++
		sends[&wf.data[0]]++
	}
	for _, node := range []string{"AS1", "AS5", experiment.ControllerNodeName} {
		if arrivals[node] == 0 {
			t.Errorf("no frame was sent to %s: the run does not cover that receiver (%v)", node, arrivals)
		}
	}
	shared := 0
	for _, n := range sends {
		shared = max(shared, n)
	}
	if shared < 2 {
		t.Errorf("no buffer was sent twice in %d frames: the shared KEEPALIVE is not on the path", len(w.frames))
	}
	t.Logf("%d frames to %d nodes; one buffer sent %d times", len(w.frames), len(arrivals), shared)
}
