package netem

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestLosslessLinkBuildsNoStream pins what a link costs when nothing
// on it is ever lost — every link of a default experiment.
// Its private stream exists as (seed, draws) only: Connect plus traffic
// stays far under the 4.9 KB a seeded stdlib generator takes, and the
// stream position is still 0.
func TestLosslessLinkBuildsNoStream(t *testing.T) {
	const links = 1000
	k, n := newNet(t)
	n.SeedLinks(7)
	a, b := twoNodes(t, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < links; i++ {
		if _, err := n.Connect(a, b, LinkConfig{Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range n.Links() {
		ep, _ := l.Endpoints()
		if err := ep.Send([]byte("keepalive")); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perLink := (after.TotalAlloc - before.TotalAlloc) / links
	t.Logf("%d bytes per link, Connect and one reliable send", perLink)
	if perLink >= 1024 {
		t.Fatalf("a lossless link cost %d bytes to connect and send on, want < 1024", perLink)
	}
	if n.Delivered != links {
		t.Fatalf("delivered %d of %d frames", n.Delivered, links)
	}
	for i, l := range n.Links() {
		if d := l.src.Draws(); d != 0 {
			t.Fatalf("link %d: lossless traffic drew %d values from its stream", i, d)
		}
	}
}

// TestLinkOwnsItsStream pins where a link's loss draws come from now
// that the link holds its stream by value and builds the generator on
// the first draw: a link created before SeedLinks draws from the
// network's shared source and records no draws of its own, one
// created after draws from its own stream and leaves the shared one
// alone; a lossless seeded link is one object with no generator; and a
// lossy link re-seeded under its own seed where it stands (Reseed)
// draws the next losses its twin draws, and under another seed others.
func TestLinkOwnsItsStream(t *testing.T) {
	shared := sim.NewCountingSource(9)
	build := func() (*Network, *Link, *Link) {
		n := NewNetwork(&countingClock{}, rand.New(shared))
		a, b := twoNodes(t, n)
		before, err := n.Connect(a, b, LinkConfig{Loss: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		n.SeedLinks(7)
		after, err := n.Connect(a, b, LinkConfig{Loss: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return n, before, after
	}
	send := func(l *Link, frames int) {
		ep, _ := l.Endpoints()
		for i := 0; i < frames; i++ {
			_ = ep.Send([]byte("u")) // the link stays up
		}
	}

	_, before, after := build()
	send(before, 50)
	if shared.Draws() == 0 || before.src.Draws() != 0 {
		t.Fatalf("a link from before SeedLinks: %d shared draws, %d of its own; want some and none", shared.Draws(), before.src.Draws())
	}
	sharedDraws := shared.Draws()
	send(after, 50)
	if shared.Draws() != sharedDraws || after.src.Draws() == 0 {
		t.Fatalf("a link from after SeedLinks: %d more shared draws, %d of its own; want none and some", shared.Draws()-sharedDraws, after.src.Draws())
	}

	a, b := twoNodes(t, NewNetwork(&countingClock{}, nil))
	a.net.SeedLinks(7)
	var lossless *Link
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if lossless, err = a.net.Connect(a, b, LinkConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	send(lossless, 10)
	if allocs > 1 || lossless.rng != nil {
		t.Errorf("a lossless seeded link: %v allocations per Connect, generator built %v; want 1 and false", allocs, lossless.rng != nil)
	}

	for _, c := range []struct {
		seed int64
		same bool
	}{{7, true}, {8, false}} {
		_, _, ref := build()
		twin, _, again := build()
		send(ref, 50)
		send(again, 50)
		twin.Reseed(c.seed)
		if again.src.Draws() != ref.src.Draws() {
			t.Fatalf("re-seeded link at draw %d, its twin at %d", again.src.Draws(), ref.src.Draws())
		}
		var losses [2][]uint64
		for i, l := range []*Link{ref, again} {
			for range 50 {
				retransmits := l.Retransmits
				send(l, 1)
				losses[i] = append(losses[i], l.Retransmits-retransmits)
			}
		}
		if same := reflect.DeepEqual(losses[0], losses[1]); same != c.same {
			t.Fatalf("re-seeded under %d, the link drew the losses of its twin: %v, want %v", c.seed, same, c.same)
		}
	}
}

// countingClock is a sim.Clock with no queue: Post counts the frame put
// on the wire and lands it on the spot, allocating nothing of its own,
// so what a send allocates besides the kernel's event is visible
// exactly.
type countingClock struct{ posted int }

func (c *countingClock) Now() time.Time { return sim.Epoch }
func (c *countingClock) Go(func())      {}
func (c *countingClock) AfterFunc(time.Duration, func()) sim.Timer {
	panic("netem schedules nothing it could cancel")
}
func (c *countingClock) Schedule(time.Duration, sim.Firer) sim.Timer {
	panic("netem schedules nothing it could cancel")
}
func (c *countingClock) Post(_ time.Duration, f sim.Firer) {
	c.posted++
	f.Fire()
}

// TestLossyLinkAllocatesNothingPerDraw is the other half of the claim
// above, on the path no lossless figure runs: once a link's stream has
// made its first draw (which builds the generator), the loss model adds
// no allocation to a send — and nor does anything else: a frame put on
// the wire rides a delivery an earlier frame has handed back, whether
// or not the link loses it.
func TestLossyLinkAllocatesNothingPerDraw(t *testing.T) {
	const frames = 2000
	clock := &countingClock{}
	n := NewNetwork(clock, nil)
	n.SeedLinks(7)
	a, b := twoNodes(t, n)
	frame := []byte("update")
	for _, cfg := range []LinkConfig{{}, {Loss: 0.3}} {
		l, err := n.Connect(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ep, _ := l.Endpoints()
		var start int
		// AllocsPerRun's warm-up batch makes the stream's first draw and
		// the network's first delivery.
		allocs := testing.AllocsPerRun(1, func() {
			start = clock.posted
			for i := 0; i < frames; i++ {
				_ = ep.Send(frame) // the link stays up
			}
		})
		if onWire := clock.posted - start; allocs != 0 {
			t.Errorf("loss %v: %v allocations for %d frames on the wire, want none", cfg.Loss, allocs, onWire)
		}
		if cfg.Loss > 0 && l.Retransmits == 0 {
			t.Errorf("no retransmission in %d sends at loss %v", 2*frames, cfg.Loss)
		}
	}
}

// lossyRig is a three-link lossy network whose receiver logs
// every delivery as (virtual time, frame number).
type lossyRig struct {
	k     *sim.Kernel
	n     *Network
	links []*Link
	got   [][2]int64
}

func newLossyRig(t *testing.T, linkSeed int64) *lossyRig {
	t.Helper()
	r := &lossyRig{}
	r.k, r.n = newNet(t)
	r.n.SeedLinks(linkSeed)
	a, b := twoNodes(t, r.n)
	b.OnMessage(func(_ *Endpoint, data []byte) {
		r.got = append(r.got, [2]int64{int64(r.k.Elapsed()), int64(data[0])})
	})
	for i := 0; i < 3; i++ {
		l, err := r.n.Connect(a, b, LinkConfig{Delay: time.Millisecond, Loss: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		r.links = append(r.links, l)
	}
	return r
}

// offer schedules frames [from, to): frame i enters link i%3 at
// start + i*10ms.
func (r *lossyRig) offer(start time.Duration, from, to int) {
	for i := from; i < to; i++ {
		ep, _ := r.links[i%len(r.links)].Endpoints()
		frame := []byte{byte(i)}
		r.k.AfterFunc(start+time.Duration(i)*10*time.Millisecond-r.k.Elapsed(), func() {
			_ = ep.Send(frame) // the links stay up
		})
	}
}

// TestLossyLinkStateRoundTrip pins that (seed, draws) still locates a
// drawn stream: a lossy network captured between two bursts — the
// kernel's State and each link's draws — is reached again by a fresh
// network that replays the first burst to the captured state.
// Re-seeded there under its own link seed, it delivers the second burst
// at the uninterrupted run's instants; under a different link seed it
// does not.
func TestLossyLinkStateRoundTrip(t *testing.T) {
	const burst = 100
	// gap outlasts the worst retransmission back-off of the first burst,
	// so the capture sees no frame in flight.
	const gap = time.Minute
	draws := func(r *lossyRig) []uint64 {
		var out []uint64
		for _, l := range r.links {
			out = append(out, l.src.Draws())
		}
		return out
	}
	whole := newLossyRig(t, 42)
	whole.offer(0, 0, burst)
	whole.offer(gap, burst, 2*burst)
	if err := whole.k.Run(); err != nil {
		t.Fatal(err)
	}

	first := newLossyRig(t, 42)
	first.offer(0, 0, burst)
	if err := first.k.RunUntil(sim.Epoch.Add(gap)); err != nil {
		t.Fatal(err)
	}
	if first.k.Pending() != 0 {
		t.Fatalf("%d events in flight at the capture", first.k.Pending())
	}
	kst, drawn := first.k.State(), draws(first)
	if slices.Max(drawn) == 0 {
		t.Fatal("the first burst drew nothing: the capture would not exercise a stream position")
	}

	// resume replays the first burst onto a fresh network, re-seeds its
	// links under linkSeed and runs the second burst.
	resume := func(linkSeed int64) [][2]int64 {
		r := newLossyRig(t, 42)
		r.offer(0, 0, burst)
		for r.k.Events() < kst.Events && r.k.Step() {
		}
		if err := r.k.RunUntil(sim.Epoch.Add(time.Duration(kst.NowNS))); err != nil {
			t.Fatal(err)
		}
		if got := r.k.State(); got != kst || !slices.Equal(draws(r), drawn) {
			t.Fatalf("replayed to %+v with draws %v, want %+v with %v", got, draws(r), kst, drawn)
		}
		r.n.Reseed(linkSeed)
		r.got = nil
		r.offer(gap, burst, 2*burst)
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		return r.got
	}
	if !reflect.DeepEqual(whole.got[:len(first.got)], first.got) {
		t.Fatal("the first burst alone is not a prefix of the uninterrupted run")
	}
	want := whole.got[len(first.got):]
	if len(want) < burst {
		t.Fatalf("second burst delivered only %d frames", len(want))
	}
	if got := resume(42); !reflect.DeepEqual(got, want) {
		t.Fatalf("second burst after the round trip delivered %d frames at other instants than the uninterrupted run's %d", len(got), len(want))
	}
	if got := resume(43); reflect.DeepEqual(got, want) {
		t.Fatal("a different link seed replayed the same losses")
	}
}
