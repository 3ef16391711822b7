package bgp

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// lab wires a handful of routers over netem links for FSM and
// propagation tests. (Whole-topology experiments live in the
// experiment package; this harness keeps bgp tests self-contained.)
type lab struct {
	t       *testing.T
	k       *sim.Kernel
	net     *netem.Network
	routers map[idr.ASN]*Router
	nodes   map[idr.ASN]*netem.Node
	peers   map[*netem.Endpoint]*Peer
	timers  Timers
	pol     policy.Policy
}

func newLab(t *testing.T, timers Timers, pol policy.Policy) *lab {
	t.Helper()
	k := sim.NewKernel(1)
	return &lab{
		t:       t,
		k:       k,
		net:     netem.NewNetwork(k, k.Rand()),
		routers: make(map[idr.ASN]*Router),
		nodes:   make(map[idr.ASN]*netem.Node),
		peers:   make(map[*netem.Endpoint]*Peer),
		timers:  timers,
		pol:     pol,
	}
}

// addRouter creates router + node for asn.
func (l *lab) addRouter(asn idr.ASN) *Router {
	l.t.Helper()
	cfg := Config{
		ASN:      asn,
		RouterID: idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(asn)})),
		Clock:    l.k,
		Rand:     l.k.Rand(),
		Policy:   l.pol,
		Timers:   l.timers,
	}
	r, err := New(cfg)
	if err != nil {
		l.t.Fatal(err)
	}
	node, err := l.net.AddNode(asn.String())
	if err != nil {
		l.t.Fatal(err)
	}
	node.OnMessage(func(from *netem.Endpoint, data []byte) {
		l.peers[from].Deliver(message(l.t, data))
	})
	l.routers[asn] = r
	l.nodes[asn] = node
	return r
}

// connect links two routers with peering sessions and returns the link.
func (l *lab) connect(a, b idr.ASN, kind topology.NeighborKind) *netem.Link {
	l.t.Helper()
	link, err := l.net.Connect(l.nodes[a], l.nodes[b], netem.LinkConfig{})
	if err != nil {
		l.t.Fatal(err)
	}
	epA, epB := link.Endpoints()
	l.addPeer(a, b, epA, kind)
	var reverse topology.NeighborKind
	switch kind {
	case topology.KindCustomer:
		reverse = topology.KindProvider
	case topology.KindProvider:
		reverse = topology.KindCustomer
	default:
		reverse = kind
	}
	l.addPeer(b, a, epB, reverse)
	link.OnStateChange(linkWatch(func(up bool) {
		for _, ep := range []*netem.Endpoint{epA, epB} {
			if p := l.peers[ep]; p != nil {
				if up {
					p.TransportUp()
				} else {
					p.TransportDown()
				}
			}
		}
	}))
	return link
}

// linkWatch adapts a func to a netem.Watcher.
type linkWatch func(up bool)

func (w linkWatch) StateChanged(up bool) { w(up) }

func (l *lab) addPeer(local, remote idr.ASN, ep *netem.Endpoint, kind topology.NeighborKind) {
	l.t.Helper()
	key := rib.PeerKey(fmt.Sprintf("to-%s", remote))
	pc := PeerConfig{
		Key:       key,
		RemoteASN: remote,
		Neighbor:  policy.Neighbor{Key: key, ASN: remote, Kind: kind},
		NextHop:   netip.AddrFrom4([4]byte{100, 64, byte(local), byte(remote)}),
		Send:      ep,
	}
	p, err := l.routers[local].AddPeer(pc)
	if err != nil {
		l.t.Fatal(err)
	}
	l.peers[ep] = p
}

// start brings all transports up.
func (l *lab) start() {
	for _, p := range l.peers {
		p := p
		l.k.Go(p.TransportUp)
	}
}

func TestSessionEstablishment(t *testing.T) {
	l := newLab(t, Timers{MRAIJitter: false}, policy.PermitAll{})
	r1 := l.addRouter(1)
	r2 := l.addRouter(2)
	l.connect(1, 2, topology.KindPeer)
	l.start()
	if err := l.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.EstablishedCount() != 1 || r2.EstablishedCount() != 1 {
		t.Fatalf("established: r1=%d r2=%d", r1.EstablishedCount(), r2.EstablishedCount())
	}
	p := r1.Peers()["to-AS2"]
	if p.State() != StateEstablished {
		t.Fatalf("state = %v", p.State())
	}
	if p.RemoteASN() != 2 || p.Key() != "to-AS2" {
		t.Fatal("peer metadata wrong")
	}
}

func TestAnnouncePropagatesAndPrepends(t *testing.T) {
	l := newLab(t, Timers{MRAIJitter: false}, policy.PermitAll{})
	r1 := l.addRouter(1)
	l.addRouter(2)
	r3 := l.addRouter(3)
	l.connect(1, 2, topology.KindPeer)
	l.connect(2, 3, topology.KindPeer)
	l.start()
	if err := l.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	l.k.Go(func() {
		if err := r1.Announce(pfx); err != nil {
			t.Error(err)
		}
	})
	if err := l.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	best, ok := r3.Table().Best(pfx)
	if !ok {
		t.Fatal("AS3 did not learn the prefix")
	}
	want := wire.NewASPath(2, 1)
	if !best.Attrs.ASPath.Equal(want) {
		t.Fatalf("AS3 path = %v, want %v", best.Attrs.ASPath, want)
	}
	if got := r1.Originated(); len(got) != 1 || got[0] != pfx {
		t.Fatalf("Originated = %v", got)
	}
}

// TestOriginatedFollowsTheRIB holds Originated, the local routes'
// attributes and Withdraw's refusal to the RIB's local routes through originate,
// withdraw and re-originate, with a learned route for one of the
// prefixes that outlives its origination.
func TestOriginatedFollowsTheRIB(t *testing.T) {
	l := newLab(t, Timers{MRAI: time.Second, MRAIJitter: false}, policy.PermitAll{})
	r1 := l.addRouter(1)
	r2 := l.addRouter(2)
	l.connect(1, 2, topology.KindPeer)
	l.start()
	p1, p2 := netip.MustParsePrefix("10.0.1.0/24"), netip.MustParsePrefix("10.0.2.0/24")
	step := func(name string, act func(), want ...netip.Prefix) {
		t.Helper()
		l.k.Go(act)
		if err := l.k.RunFor(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := r1.Originated(); !slices.Equal(got, want) {
			t.Fatalf("%s: Originated = %v, want %v", name, got, want)
		}
		for _, p := range []netip.Prefix{p1, p2} {
			rt, local := r1.Table().Local(p)
			if listed := slices.Contains(want, p); local != listed {
				t.Fatalf("%s: %v has a local route %v, listed %v", name, p, local, listed)
			}
			if local && !rt.Attrs.Equal(wire.PathAttrs{Origin: wire.OriginIGP}) {
				t.Fatalf("%s: %v originated with %+v", name, p, rt.Attrs)
			}
		}
	}
	announce := func(r *Router, p netip.Prefix) func() {
		return func() {
			if err := r.Announce(p); err != nil {
				t.Error(err)
			}
		}
	}
	withdraw := func(p netip.Prefix) func() {
		return func() {
			if err := r1.Withdraw(p); err != nil {
				t.Error(err)
			}
		}
	}
	step("nothing originated", func() {})
	step("AS2 announces p2", announce(r2, p2))
	step("AS1 originates p1", announce(r1, p1), p1)
	step("AS1 originates p2 as well", announce(r1, p2), p1, p2)
	step("AS1 withdraws p2", withdraw(p2), p1)
	if best, ok := r1.Table().Best(p2); !ok || best.Local {
		t.Fatalf("after the withdrawal AS1's p2 route is %v, %v; want AS2's", best, ok)
	}
	step("AS1 withdraws p2 again", func() {
		if err := r1.Withdraw(p2); err == nil {
			t.Error("AS1 withdrew p2, which it only learns")
		}
	}, p1)
	step("AS1 withdraws p1", withdraw(p1))
	step("AS1 withdraws p1 again", func() {
		if err := r1.Withdraw(p1); err == nil {
			t.Error("a second withdrawal of p1 was accepted")
		}
	})
	step("AS1 re-originates p1", announce(r1, p1), p1)
}

func TestWithdrawPropagates(t *testing.T) {
	l := newLab(t, Timers{MRAI: time.Second, MRAIJitter: false}, policy.PermitAll{})
	r1 := l.addRouter(1)
	l.addRouter(2)
	r3 := l.addRouter(3)
	l.connect(1, 2, topology.KindPeer)
	l.connect(2, 3, topology.KindPeer)
	l.start()
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	l.k.AfterFunc(time.Second, func() { _ = r1.Announce(pfx) })
	if err := l.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := r3.Table().Best(pfx); !ok {
		t.Fatal("setup: AS3 should have the route")
	}
	l.k.Go(func() { _ = r1.Withdraw(pfx) })
	if err := l.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := r3.Table().Best(pfx); ok {
		t.Fatal("AS3 still has the withdrawn route")
	}
	if err := r1.Withdraw(pfx); err == nil {
		t.Fatal("double withdraw should error")
	}
}

func TestLinkFailureResetsAndRecovers(t *testing.T) {
	l := newLab(t, Timers{MRAIJitter: false}, policy.PermitAll{})
	r1 := l.addRouter(1)
	r2 := l.addRouter(2)
	link := l.connect(1, 2, topology.KindPeer)
	l.start()
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	l.k.AfterFunc(time.Second, func() { _ = r1.Announce(pfx) })
	if err := l.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.Table().Best(pfx); !ok {
		t.Fatal("setup: AS2 should have the route")
	}
	l.k.Go(func() { link.SetUp(false) })
	if err := l.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.Table().Best(pfx); ok {
		t.Fatal("route should be flushed on session loss")
	}
	if r1.EstablishedCount() != 0 {
		t.Fatal("session should be down")
	}
	l.k.Go(func() { link.SetUp(true) })
	if err := l.k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.EstablishedCount() != 1 {
		t.Fatal("session should have re-established")
	}
	if _, ok := r2.Table().Best(pfx); !ok {
		t.Fatal("route should be relearned after recovery")
	}
}

func TestDelayedNeighborStart(t *testing.T) {
	// AS2's transport stays down initially; AS1 keeps retrying and the
	// session comes up once AS2 joins.
	l := newLab(t, Timers{MRAIJitter: false}, policy.PermitAll{})
	r1 := l.addRouter(1)
	l.addRouter(2)
	link := l.connect(1, 2, topology.KindPeer)
	_ = link
	// Start only AS1's side.
	epA, epB := link.Endpoints()
	l.k.Go(l.peers[epA].TransportUp)
	if err := l.k.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.EstablishedCount() != 0 {
		t.Fatal("cannot establish one-sided")
	}
	l.k.Go(l.peers[epB].TransportUp)
	if err := l.k.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.EstablishedCount() != 1 {
		t.Fatal("session should establish after the neighbor starts")
	}
}

func TestLoopPrevention(t *testing.T) {
	// Triangle of peers with full transit: no router may ever install
	// a path containing its own ASN, and all tables converge.
	l := newLab(t, Timers{MRAI: time.Second, MRAIJitter: false}, policy.PermitAll{})
	for asn := idr.ASN(1); asn <= 3; asn++ {
		l.addRouter(asn)
	}
	l.connect(1, 2, topology.KindPeer)
	l.connect(2, 3, topology.KindPeer)
	l.connect(1, 3, topology.KindPeer)
	l.start()
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	l.k.AfterFunc(time.Second, func() { _ = l.routers[1].Announce(pfx) })
	if err := l.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	for asn, r := range l.routers {
		best, ok := r.Table().Best(pfx)
		if !ok {
			t.Fatalf("%v has no route", asn)
		}
		if best.Attrs.ASPath.Contains(asn) {
			t.Fatalf("%v installed a looped path %v", asn, best.Attrs.ASPath)
		}
	}
}

func TestMRAIPacing(t *testing.T) {
	// With transit via AS2, AS3's announcements to AS1 about changing
	// paths must be spaced by at least MRAI.
	const mrai = 10 * time.Second
	l := newLab(t, Timers{MRAI: mrai, MRAIJitter: false}, policy.PermitAll{})
	l.addRouter(1)
	r2 := l.addRouter(2)
	var announceTimes []time.Time
	r2cfg := r2.cfg
	r2cfg.Trace = func(ev TraceEvent) {
		if ev.Kind == TraceSend && ev.Peer == "to-AS1" {
			if u := ev.Update; u != nil && len(u.NLRI) > 0 {
				announceTimes = append(announceTimes, ev.Time)
			}
		}
	}
	r2.cfg = r2cfg
	l.connect(1, 2, topology.KindPeer)
	l.start()
	pfx := netip.MustParsePrefix("10.0.2.0/24")
	l.k.AfterFunc(time.Second, func() { _ = r2.Announce(pfx) })
	// Withdraw after the first flush went out, then re-announce after
	// the withdrawal batch left: three distinct batches, each spaced
	// by the advertisement interval.
	l.k.AfterFunc(2*time.Second, func() { _ = r2.Withdraw(pfx) })
	l.k.AfterFunc(13*time.Second, func() { _ = r2.Announce(pfx) })
	if err := l.k.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(announceTimes) != 2 {
		t.Fatalf("want 2 announcements, got %d", len(announceTimes))
	}
	for i := 1; i < len(announceTimes); i++ {
		gap := announceTimes[i].Sub(announceTimes[i-1])
		if gap < mrai {
			t.Fatalf("announcements %d and %d only %v apart (MRAI %v)", i-1, i, gap, mrai)
		}
	}
	// A flap entirely inside one batch window is absorbed. The
	// withdrawal consumes the open slot immediately; the announce and
	// re-withdraw that follow inside the closed window cancel out, so
	// no further announcement is ever sent.
	before := len(announceTimes)
	l.k.Go(func() { _ = r2.Withdraw(pfx) })
	l.k.AfterFunc(time.Second, func() { _ = r2.Announce(pfx) })
	l.k.AfterFunc(2*time.Second, func() { _ = r2.Withdraw(pfx) })
	if err := l.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(announceTimes) != before {
		t.Fatalf("in-window flap leaked %d extra announcements", len(announceTimes)-before)
	}
}

func TestGaoRexfordNoValleyTransit(t *testing.T) {
	// AS1 provides AS2 and AS3; AS2 peers with AS3. A prefix from AS1
	// (provider of both) must not transit the AS2-AS3 peering, and a
	// prefix of AS2 must reach AS3 both directly (peer) and never via
	// a valley.
	l := newLab(t, Timers{MRAI: time.Second, MRAIJitter: false}, policy.GaoRexford{})
	r1 := l.addRouter(1)
	r2 := l.addRouter(2)
	r3 := l.addRouter(3)
	l.connect(1, 2, topology.KindCustomer) // AS2 is AS1's customer
	l.connect(1, 3, topology.KindCustomer)
	l.connect(2, 3, topology.KindPeer)
	l.start()
	pfx1 := netip.MustParsePrefix("10.0.1.0/24")
	pfx2 := netip.MustParsePrefix("10.0.2.0/24")
	l.k.AfterFunc(time.Second, func() {
		_ = r1.Announce(pfx1)
		_ = r2.Announce(pfx2)
	})
	if err := l.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// AS3 reaches pfx1 only via its provider AS1 (path [1]).
	best, ok := r3.Table().Best(pfx1)
	if !ok {
		t.Fatal("AS3 has no route to provider prefix")
	}
	if !best.Attrs.ASPath.Equal(wire.NewASPath(1)) {
		t.Fatalf("AS3 path to pfx1 = %v, want direct provider path", best.Attrs.ASPath)
	}
	// AS3 prefers the peer path [2] for pfx2 (peer pref > provider).
	best, ok = r3.Table().Best(pfx2)
	if !ok {
		t.Fatal("AS3 has no route to peer prefix")
	}
	if !best.Attrs.ASPath.Equal(wire.NewASPath(2)) {
		t.Fatalf("AS3 path to pfx2 = %v, want peer path [2]", best.Attrs.ASPath)
	}
	// AS1 must learn pfx2 from its customer AS2 directly, never via
	// AS3 (that would be a valley).
	best, ok = r1.Table().Best(pfx2)
	if !ok {
		t.Fatal("AS1 has no route to customer prefix")
	}
	if !best.Attrs.ASPath.Equal(wire.NewASPath(2)) {
		t.Fatalf("AS1 path to pfx2 = %v", best.Attrs.ASPath)
	}
}

func TestHoldTimerExpiry(t *testing.T) {
	// Freeze AS2 after establishment by dropping all its outgoing
	// messages: AS1's hold timer must fire and reset the session.
	l := newLab(t, Timers{HoldTime: 9 * time.Second, MRAIJitter: false}, policy.PermitAll{})
	r1 := l.addRouter(1)
	l.addRouter(2)
	link := l.connect(1, 2, topology.KindPeer)
	l.start()
	if err := l.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.EstablishedCount() != 1 {
		t.Fatal("setup: session should be up")
	}
	// Silence AS2 by replacing its peer's send with a black hole: we
	// simulate a hung process, not a broken link.
	epA, epB := link.Endpoints()
	_ = epA
	p2 := l.peers[epB]
	p2.fsm.cfg.Send = frames.SendFunc(func([]byte) error { return nil })
	// Also stop its keepalive timer from being re-armed; easiest is to
	// force its state so the timer callback stops sending.
	p2.fsm.keepaliveTimer.Stop()
	if err := l.k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	p1 := r1.Peers()["to-AS2"]
	if p1.State() == StateEstablished {
		t.Fatal("hold timer should have reset the silent session")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(Config{Clock: k}); err == nil {
		t.Fatal("missing ASN should error")
	}
	if _, err := New(Config{ASN: 1}); err == nil {
		t.Fatal("missing clock should error")
	}
	if _, err := New(Config{ASN: 1, Clock: k, Timers: Timers{MRAIJitter: true}}); err == nil {
		t.Fatal("jitter without rand should error")
	}
	r, err := New(Config{ASN: 1, Clock: k})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddPeer(PeerConfig{}); err == nil {
		t.Fatal("empty peer config should error")
	}
	if _, err := r.AddPeer(PeerConfig{Key: "p"}); err == nil {
		t.Fatal("missing remote ASN should error")
	}
	if _, err := r.AddPeer(PeerConfig{Key: "p", RemoteASN: 2}); err == nil {
		t.Fatal("missing send should error")
	}
	ok := PeerConfig{Key: "p", RemoteASN: 2, Send: frames.SendFunc(func([]byte) error { return nil })}
	if _, err := r.AddPeer(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddPeer(ok); err == nil {
		t.Fatal("duplicate key should error")
	}
	if err := r.Announce(netip.MustParsePrefix("2001:db8::/32")); err == nil {
		t.Fatal("IPv6 announce should error")
	}
	if r.ASN() != 1 {
		t.Fatal("ASN accessor wrong")
	}
	if len(r.Peers()) != 1 {
		t.Fatal("Peers accessor wrong")
	}
	if StateIdle.String() != "Idle" || State(9).String() == "" {
		t.Fatal("State.String wrong")
	}
}

func TestWrongASNInOpenRejected(t *testing.T) {
	l := newLab(t, Timers{MRAIJitter: false}, policy.PermitAll{})
	r1 := l.addRouter(1)
	l.addRouter(2)
	link := l.connect(1, 2, topology.KindPeer)
	// Misconfigure AS1's expectation.
	epA, _ := link.Endpoints()
	l.peers[epA].fsm.cfg.RemoteASN = 99
	l.start()
	if err := l.k.RunFor(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.EstablishedCount() != 0 {
		t.Fatal("session with wrong ASN must not establish")
	}
}
