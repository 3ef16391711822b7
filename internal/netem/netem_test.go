package netem

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func newNet(t *testing.T) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel(1)
	return k, NewNetwork(k, k.Rand())
}

func twoNodes(t *testing.T, n *Network) (*Node, *Node) {
	t.Helper()
	a, err := n.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddNode("b")
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSendDeliversAfterDelay(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{Delay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var at time.Duration
	b.OnMessage(func(from *Endpoint, data []byte) {
		got = data
		at = k.Elapsed()
	})
	epA, _ := l.Endpoints()
	if err := epA.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	if l.Delivered != 1 || n.Delivered != 1 || n.BytesDelivered != 5 {
		t.Fatalf("counters: link=%d net=%d bytes=%d", l.Delivered, n.Delivered, n.BytesDelivered)
	}
}

func TestSendInOrder(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	b.OnMessage(func(from *Endpoint, data []byte) { got = append(got, string(data)) })
	epA, _ := l.Endpoints()
	for _, m := range []string{"1", "2", "3", "4"} {
		if err := epA.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"1", "2", "3", "4"} {
		if got[i] != want {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestBidirectional(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gotA, gotB := "", ""
	a.OnMessage(func(from *Endpoint, data []byte) { gotA = string(data) })
	b.OnMessage(func(from *Endpoint, data []byte) { gotB = string(data) })
	epA, epB := l.Endpoints()
	if err := epA.Send([]byte("to-b")); err != nil {
		t.Fatal(err)
	}
	if err := epB.Send([]byte("to-a")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotA != "to-a" || gotB != "to-b" {
		t.Fatalf("gotA=%q gotB=%q", gotA, gotB)
	}
}

func TestSendOnDownLink(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l.SetUp(false)
	epA, _ := l.Endpoints()
	if err := epA.Send([]byte("x")); err != ErrLinkDown {
		t.Fatalf("Send on down link = %v, want ErrLinkDown", err)
	}
	_ = k
}

func TestLinkDownDropsInFlight(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{Delay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	received := false
	b.OnMessage(func(from *Endpoint, data []byte) { received = true })
	epA, _ := l.Endpoints()
	if err := epA.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Take the link down before delivery, and bring it back up: the
	// in-flight message must still die (epoch bump).
	k.AfterFunc(2*time.Millisecond, func() { l.SetUp(false) })
	k.AfterFunc(4*time.Millisecond, func() { l.SetUp(true) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received {
		t.Fatal("message survived a link flap")
	}
	if l.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", l.Dropped)
	}
}

func TestLinkStateCallbacks(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var trans []bool
	l.OnStateChange(watchFunc(func(up bool) { trans = append(trans, up) }))
	l.SetUp(false)
	l.SetUp(false) // no-op
	l.SetUp(true)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trans) != 2 || trans[0] != false || trans[1] != true {
		t.Fatalf("transitions = %v", trans)
	}
	if !l.Up() {
		t.Fatal("link should be up")
	}
}

func TestConnectValidation(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	if _, err := n.Connect(a, a, LinkConfig{}); err == nil {
		t.Fatal("self-connect should error")
	}
	if _, err := n.Connect(nil, b, LinkConfig{}); err == nil {
		t.Fatal("nil node should error")
	}
	if _, err := n.Connect(a, b, LinkConfig{Loss: 2}); err == nil {
		t.Fatal("loss > 1 should error")
	}
	if _, err := n.Connect(a, b, LinkConfig{Loss: math.NaN()}); err == nil {
		t.Fatal("NaN loss should error")
	}
	if _, err := n.Connect(a, b, LinkConfig{Delay: -time.Second}); err == nil {
		t.Fatal("negative delay should error")
	}
	other := NewNetwork(k, nil)
	c, _ := other.AddNode("c")
	if _, err := n.Connect(a, c, LinkConfig{}); err == nil {
		t.Fatal("cross-network connect should error")
	}
	// Loss without rng.
	n2 := NewNetwork(k, nil)
	x, _ := n2.AddNode("x")
	y, _ := n2.AddNode("y")
	if _, err := n2.Connect(x, y, LinkConfig{Loss: 0.1}); err == nil {
		t.Fatal("loss without rng should error")
	}
}

func TestDuplicateNodeName(t *testing.T) {
	_, n := newNet(t)
	if _, err := n.AddNode("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNode("dup"); err == nil {
		t.Fatal("duplicate name should error")
	}
}

func TestEndpointNavigation(t *testing.T) {
	_, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	epA, epB := l.Endpoints()
	if epA.Node() != a || epA.Peer().Node() != b || epA.Peer() != epB {
		t.Fatal("endpoint navigation broken")
	}
	if epA.Link() != l {
		t.Fatal("Link() wrong")
	}
	ep, ok := a.EndpointTo("b")
	if !ok || ep != epA {
		t.Fatal("EndpointTo wrong")
	}
	if _, ok := a.EndpointTo("zz"); ok {
		t.Fatal("EndpointTo should miss")
	}
	if l.String() != "a<->b" || epA.String() != "a->b" {
		t.Fatalf("String: %q %q", l.String(), epA.String())
	}
	nd, ok := n.Node("a")
	if !ok || nd != a {
		t.Fatal("Network.Node lookup wrong")
	}
	if len(n.Links()) != 1 {
		t.Fatal("Links() wrong")
	}
	if len(a.Endpoints()) != 1 {
		t.Fatal("Endpoints() wrong")
	}
	if a.Name() != "a" {
		t.Fatal("Name() wrong")
	}
	if n.Clock() == nil {
		t.Fatal("Clock() nil")
	}
	if l.Config().Delay != DefaultDelay {
		t.Fatalf("default delay = %v", l.Config().Delay)
	}
}

func TestManyNodesStress(t *testing.T) {
	k, n := newNet(t)
	const N = 50
	nodes := make([]*Node, N)
	for i := range nodes {
		var err error
		nodes[i], err = n.AddNode(string(rune('A'+i/26)) + string(rune('a'+i%26)))
		if err != nil {
			t.Fatal(err)
		}
	}
	recv := 0
	for _, nd := range nodes {
		nd.OnMessage(func(from *Endpoint, data []byte) { recv++ })
	}
	rng := rand.New(rand.NewSource(2))
	var links []*Link
	for i := 1; i < N; i++ {
		l, err := n.Connect(nodes[i-1], nodes[i], LinkConfig{
			Delay: time.Duration(1+rng.Intn(10)) * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, l)
	}
	sent := 0
	for _, l := range links {
		a, b := l.Endpoints()
		for i := 0; i < 10; i++ {
			if err := a.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if err := b.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			sent += 2
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != sent {
		t.Fatalf("received %d of %d", recv, sent)
	}
}

// TestBackToBackSendsArriveTogether pins that a link has no capacity
// model: frames sent at one instant all land one delay later, whatever
// their size.
func TestBackToBackSendsArriveTogether(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{Delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	b.OnMessage(func(from *Endpoint, data []byte) { arrivals = append(arrivals, k.Elapsed()) })
	epA, _ := l.Endpoints()
	for i := 0; i < 3; i++ {
		if err := epA.Send(make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, at := range arrivals {
		if at != 5*time.Millisecond {
			t.Fatalf("back-to-back frames should all land at 5ms: %v", arrivals)
		}
	}
	if len(arrivals) != 3 {
		t.Fatalf("%d of 3 frames arrived", len(arrivals))
	}
}

// TestReliableLossPenalty pins the reliable-transport loss model: on a
// lossy link each lost attempt adds a doubling retransmission timeout
// (starting at the classic 200ms minimum RTO) to the delivery, the
// Retransmits counter ticks per lost attempt, and delivery still
// happens in order.
func TestReliableLossPenalty(t *testing.T) {
	k, n := newNet(t)
	n.SeedLinks(7)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{Delay: 10 * time.Millisecond, Loss: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var deliveries int
	b.OnMessage(func(from *Endpoint, data []byte) { deliveries++ })
	epA, _ := l.Endpoints()
	for i := 0; i < 50; i++ {
		if err := epA.Send([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveries+int(l.Dropped) != 50 {
		t.Fatalf("delivered %d + dropped %d != 50", deliveries, l.Dropped)
	}
	if l.Retransmits == 0 {
		t.Fatal("50%% loss produced no retransmissions")
	}
	// Retransmissions cost virtual time: the last delivery must land
	// later than the loss-free schedule (50 in-order sends, 10ms each,
	// back-to-back departures).
	if k.Elapsed() <= 10*time.Millisecond {
		t.Fatalf("elapsed %v shows no retransmission penalty", k.Elapsed())
	}
}

// TestTotalLossDeliversNothing pins the Loss=1.0 edge: the sender gives
// up after its retransmission budget and nothing is ever delivered — a
// session across such a link can never establish.
func TestTotalLossDeliversNothing(t *testing.T) {
	k, n := newNet(t)
	n.SeedLinks(1)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{Loss: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	b.OnMessage(func(from *Endpoint, data []byte) { t.Fatalf("delivered %q across a fully lossy link", data) })
	epA, _ := l.Endpoints()
	for i := 0; i < 10; i++ {
		if err := epA.Send([]byte("reliable")); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Delivered != 0 || l.Delivered != 0 {
		t.Fatalf("delivered = %d, want 0", n.Delivered)
	}
	if l.Dropped != 10 || n.Dropped != 10 {
		t.Fatalf("dropped = %d, want all 10 sends", l.Dropped)
	}
}

// TestSeededLossDeterministic pins the reproducibility contract: two
// networks built with the same SeedLinks seed draw identical loss
// streams per link, so the same send sequence produces
// identical counters and delivery times — independent of the kernel's
// shared rand, which other goroutines may consume concurrently.
func TestSeededLossDeterministic(t *testing.T) {
	runOnce := func(burnKernelRand int) (uint64, uint64, time.Duration) {
		k, n := newNet(t)
		n.SeedLinks(42)
		a, b := twoNodes(t, n)
		l, err := n.Connect(a, b, LinkConfig{Delay: time.Millisecond, Loss: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		// Perturb the kernel's shared rand: per-link streams must not care.
		for i := 0; i < burnKernelRand; i++ {
			k.Rand().Int63()
		}
		epA, _ := l.Endpoints()
		for i := 0; i < 40; i++ {
			if err := epA.Send([]byte("r")); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return l.Retransmits, l.Delivered, k.Elapsed()
	}
	r1, d1, e1 := runOnce(0)
	r2, d2, e2 := runOnce(17)
	if r1 != r2 || d1 != d2 || e1 != e2 {
		t.Fatalf("seeded loss not deterministic: (%d,%d,%v) vs (%d,%d,%v)", r1, d1, e1, r2, d2, e2)
	}
	if r1 == 0 {
		t.Fatal("30%% loss produced no retransmissions")
	}

	// A different seed draws a different stream.
	k, n := newNet(t)
	n.SeedLinks(43)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{Delay: time.Millisecond, Loss: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	epA, _ := l.Endpoints()
	for i := 0; i < 40; i++ {
		if err := epA.Send([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Retransmits == r1 && l.Delivered == d1 && k.Elapsed() == e1 {
		t.Fatal("different link seeds drew identical loss streams")
	}
}

// TestUnseededLinksFallBackToSharedRand pins that networks built
// without SeedLinks keep the pre-chaos behavior: links draw from the
// construction-time shared rand.
func TestUnseededLinksFallBackToSharedRand(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNetwork(k, rand.New(rand.NewSource(9)))
	a, err := n.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddNode("b")
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Connect(a, b, LinkConfig{Loss: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	epA, _ := l.Endpoints()
	for i := 0; i < 20; i++ {
		if err := epA.Send([]byte("u")); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Delivered == 0 || l.Retransmits == 0 {
		t.Fatalf("50%% loss should deliver some and retransmit some: delivered=%d retransmits=%d", l.Delivered, l.Retransmits)
	}
}

// TestFrameInFlightAllocatesNothing pins the one-buffer path end to end
// on the real kernel: a frame crossing a link rides a recycled delivery
// on a recycled event, including when the receiver answers from inside
// its handler and when the link drops the frame mid-flight.
func TestFrameInFlightAllocatesNothing(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	epA, epB := l.Endpoints()
	frame := []byte("ping")
	echoed := 0
	b.OnMessage(func(*Endpoint, []byte) { _ = epB.Send(frame) })
	a.OnMessage(func(*Endpoint, []byte) { echoed++ })
	roundTrip := func() {
		if err := epA.Send(frame); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // the one delivery and the one event
	if got := testing.AllocsPerRun(100, roundTrip); got != 0 {
		t.Errorf("send, echo and both deliveries: %v allocs, want 0", got)
	}
	if echoed != 102 {
		t.Errorf("%d echoes arrived, want 102", echoed)
	}
	dropped := l.Dropped
	cut := func() {
		_ = epA.Send(frame)
		l.SetUp(false) // no subscribers, so nothing else is scheduled
		l.SetUp(true)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, cut); got != 0 {
		t.Errorf("send and mid-flight drop: %v allocs, want 0", got)
	}
	if l.Dropped-dropped != 101 || echoed != 102 {
		t.Errorf("%d frames dropped and %d echoed after the cuts, want 101 and 102", l.Dropped-dropped, echoed)
	}
}

// TestAnswerOnTheSpotLeavesTheFrame pins when a delivery goes back to
// the network: only once its handler has returned. A handler that
// answers from inside itself gets another delivery, so the frame it is
// reading stays as it was, and the answer arrives as sent.
func TestAnswerOnTheSpotLeavesTheFrame(t *testing.T) {
	k, n := newNet(t)
	a, b := twoNodes(t, n)
	l, err := n.Connect(a, b, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	epA, epB := l.Endpoints()
	var answers []string
	b.OnMessage(func(_ *Endpoint, data []byte) {
		before := string(data)
		if err := epB.Send([]byte(strings.ToUpper(before))); err != nil { // fits the frame's buffer
			t.Fatal(err)
		}
		if string(data) != before {
			t.Errorf("answering overwrote the frame being read: %q became %q", before, data)
		}
	})
	a.OnMessage(func(_ *Endpoint, data []byte) { answers = append(answers, string(data)) })
	for _, ping := range []string{"ping 1", "ping 2"} {
		if err := epA.Send([]byte(ping)); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"PING 1", "PING 2"}; !slices.Equal(answers, want) {
		t.Errorf("answers %q, want %q", answers, want)
	}
}

// watchFunc adapts a func to a Watcher.
type watchFunc func(up bool)

func (w watchFunc) StateChanged(up bool) { w(up) }
