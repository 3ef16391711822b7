package speaker

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/netem"
	"repro/internal/sim"
)

// rig wires one speaker session (for border AS 10) against one legacy
// bgp.Router (AS 2) over a netem link.
type rig struct {
	k      *sim.Kernel
	sess   *Session
	router *bgp.Router
	peer   *bgp.Peer
	link   *netem.Link
	events []RouteEvent
	states []bool
	// mute names the side ("speaker" or "router") whose outbound frames
	// are silently dropped — a hung process, not a broken link.
	mute string
	// notified records, per receiving side, each NOTIFICATION's code
	// and whether both sessions were Idle once it was processed.
	notified map[string][]notification
	// sent counts the frames each side handed to its transport.
	sent map[string]int
}

type notification struct {
	code     uint8
	bothIdle bool
}

// sendFrom wraps one side's transmit function with the mute switch.
func (g *rig) sendFrom(side string, send func([]byte) error) func([]byte) error {
	return func(b []byte) error {
		g.sent[side]++
		if g.mute == side {
			return nil
		}
		return send(b)
	}
}

// message is the BGP message inside a link frame, as a node's
// demultiplexer hands it to Deliver.
func message(frame []byte) []byte {
	_, msg, _ := frames.Decode(frame)
	return msg
}

// noteNotification records a NOTIFICATION that side just processed.
func (g *rig) noteNotification(side string, frame []byte) {
	if m, err := wire.Unmarshal(message(frame)); err == nil {
		if n, ok := m.(wire.Notification); ok {
			idle := g.sess.State() == bgp.StateIdle && g.peer.State() == bgp.StateIdle
			g.notified[side] = append(g.notified[side], notification{n.Code, idle})
		}
	}
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	net := netem.NewNetwork(k, k.Rand())
	swNode, err := net.AddNode("sw")
	if err != nil {
		t.Fatal(err)
	}
	rNode, err := net.AddNode("r")
	if err != nil {
		t.Fatal(err)
	}
	link, err := net.Connect(swNode, rNode, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	epSw, epR := link.Endpoints()

	g := &rig{k: k, link: link, notified: make(map[string][]notification), sent: make(map[string]int)}

	router, err := bgp.New(bgp.Config{
		ASN:      2,
		RouterID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.2")),
		Clock:    k,
		Rand:     k.Rand(),
		Timers:   bgp.Timers{MRAI: time.Second, MRAIJitter: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := router.AddPeer(bgp.PeerConfig{
		Key:       "to-AS10",
		RemoteASN: 10,
		NextHop:   netip.MustParseAddr("100.64.0.2"),
		Send:      g.sendFrom("router", epR.Send),
	})
	if err != nil {
		t.Fatal(err)
	}
	rNode.OnMessage(func(from *netem.Endpoint, data []byte) {
		router.Deliver("to-AS10", message(data))
		g.noteNotification("router", data)
	})

	sess, err := New(Config{
		SessionConfig: bgp.SessionConfig{
			LocalASN:  10,
			LocalID:   idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.10")),
			RemoteASN: 2,
			// What core passes; also bgp.DefaultTimers, so both ends agree.
			ConnectRetry:      5 * time.Second,
			KeepaliveFraction: 3,
			Clock:             k,
			Send:              g.sendFrom("speaker", epSw.Send),
		},
		NextHop: netip.MustParseAddr("100.64.0.1"),
		OnRoute: func(ev RouteEvent) { g.events = append(g.events, ev) },
		OnState: func(up bool) { g.states = append(g.states, up) },
	})
	if err != nil {
		t.Fatal(err)
	}
	swNode.OnMessage(func(from *netem.Endpoint, data []byte) {
		sess.Deliver(message(data))
		g.noteNotification("speaker", data)
	})
	link.OnStateChange(func(up bool) {
		if up {
			sess.TransportUp()
			peer.TransportUp()
		} else {
			sess.TransportDown()
			peer.TransportDown()
		}
	})
	g.sess, g.router, g.peer = sess, router, peer
	k.Go(func() {
		sess.TransportUp()
		peer.TransportUp()
	})
	return g
}

func TestSessionEstablishes(t *testing.T) {
	g := newRig(t)
	if err := g.k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if g.sess.State() != bgp.StateEstablished {
		t.Fatalf("speaker state = %v", g.sess.State())
	}
	if g.router.EstablishedCount() != 1 {
		t.Fatal("router side not established")
	}
	if len(g.states) != 1 || !g.states[0] {
		t.Fatalf("state events = %v", g.states)
	}
	if g.sess.LocalASN() != 10 || g.sess.RemoteASN() != 2 {
		t.Fatal("session identity wrong")
	}
}

func TestLearnsExternalRoutes(t *testing.T) {
	g := newRig(t)
	pfx := netip.MustParsePrefix("10.0.2.0/24")
	g.k.AfterFunc(time.Second, func() { _ = g.router.Announce(pfx) })
	if err := g.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(g.events) != 1 {
		t.Fatalf("route events = %v", g.events)
	}
	ev := g.events[0]
	if ev.Withdrawn || ev.Prefix != pfx {
		t.Fatalf("event = %+v", ev)
	}
	if !ev.Attrs.ASPath.Equal(wire.NewASPath(2)) {
		t.Fatalf("path = %v", ev.Attrs.ASPath)
	}
	// Withdrawal surfaces too.
	g.k.Go(func() { _ = g.router.Withdraw(pfx) })
	if err := g.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(g.events) != 2 || !g.events[1].Withdrawn {
		t.Fatalf("events = %v", g.events)
	}
}

func TestAnnounceToLegacy(t *testing.T) {
	g := newRig(t)
	if err := g.k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	pfx := netip.MustParsePrefix("10.0.10.0/24")
	attrs := wire.PathAttrs{
		Origin: wire.OriginIGP,
		ASPath: wire.NewASPath(10, 11), // cluster-internal sequence
	}
	g.k.Go(func() {
		if err := g.sess.Announce(pfx, attrs); err != nil {
			t.Error(err)
		}
	})
	if err := g.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	best, ok := g.router.Table().Best(pfx)
	if !ok {
		t.Fatal("legacy router did not learn the cluster prefix")
	}
	if !best.Attrs.ASPath.Equal(wire.NewASPath(10, 11)) {
		t.Fatalf("path = %v", best.Attrs.ASPath)
	}
	if best.Attrs.NextHop != netip.MustParseAddr("100.64.0.1") {
		t.Fatalf("next hop = %v", best.Attrs.NextHop)
	}
	if adv := g.sess.Advertised(); len(adv) != 1 || adv[0] != pfx {
		t.Fatalf("Advertised = %v", adv)
	}
	// Idempotent re-announce sends nothing new (no error, state same).
	g.k.Go(func() {
		if err := g.sess.Announce(pfx, attrs); err != nil {
			t.Error(err)
		}
	})
	if err := g.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// Withdraw.
	g.k.Go(func() {
		if err := g.sess.WithdrawPrefix(pfx); err != nil {
			t.Error(err)
		}
	})
	if err := g.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.router.Table().Best(pfx); ok {
		t.Fatal("withdrawal did not reach the legacy router")
	}
	if len(g.sess.Advertised()) != 0 {
		t.Fatal("Advertised should be empty")
	}
	// Withdrawing again is a no-op.
	g.k.Go(func() {
		if err := g.sess.WithdrawPrefix(pfx); err != nil {
			t.Error(err)
		}
	})
	if err := g.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestAnnounceRequiresEstablished(t *testing.T) {
	sess, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Announce(netip.MustParsePrefix("10.0.0.0/24"), wire.PathAttrs{}); err == nil {
		t.Fatal("announce while Idle should error")
	}
	if err := sess.WithdrawPrefix(netip.MustParsePrefix("10.0.0.0/24")); err == nil {
		t.Fatal("withdraw while Idle should error")
	}
}

func TestResetEmitsSyntheticWithdrawals(t *testing.T) {
	g := newRig(t)
	pfx := netip.MustParsePrefix("10.0.2.0/24")
	g.k.AfterFunc(time.Second, func() { _ = g.router.Announce(pfx) })
	if err := g.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(g.events) != 1 {
		t.Fatalf("setup events = %v", g.events)
	}
	g.k.Go(func() { g.link.SetUp(false) })
	if err := g.k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(g.events) != 2 || !g.events[1].Withdrawn || g.events[1].Prefix != pfx {
		t.Fatalf("expected synthetic withdrawal, events = %v", g.events)
	}
	if len(g.states) != 2 || g.states[1] {
		t.Fatalf("state events = %v", g.states)
	}
	// Recovery re-establishes and relearns.
	g.k.Go(func() { g.link.SetUp(true) })
	if err := g.k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if g.sess.State() != bgp.StateEstablished {
		t.Fatal("session should recover")
	}
	last := g.events[len(g.events)-1]
	if last.Withdrawn || last.Prefix != pfx {
		t.Fatalf("route should be relearned, events = %v", g.events)
	}
}

// validConfig is the least New accepts.
func validConfig() Config {
	return Config{
		SessionConfig: bgp.SessionConfig{
			LocalASN: 10, RemoteASN: 2,
			ConnectRetry: 5 * time.Second, KeepaliveFraction: 3,
			Clock: sim.NewKernel(1),
			Send:  func([]byte) error { return nil },
		},
		OnRoute: func(RouteEvent) {},
		OnState: func(bool) {},
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(validConfig()); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"local ASN":          func(c *Config) { c.LocalASN = 0 },
		"remote ASN":         func(c *Config) { c.RemoteASN = 0 },
		"clock":              func(c *Config) { c.Clock = nil },
		"send":               func(c *Config) { c.Send = nil },
		"connect-retry":      func(c *Config) { c.ConnectRetry = 0 },
		"keepalive fraction": func(c *Config) { c.KeepaliveFraction = 0 },
		"route callback":     func(c *Config) { c.OnRoute = nil },
		"state callback":     func(c *Config) { c.OnState = nil },
	} {
		cfg := validConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("missing %s should error", name)
		}
	}
}

func TestWrongRemoteASNRejected(t *testing.T) {
	g := newRig(t)
	// Sabotage: speaker expects AS 2 but we reconfigure it to expect 99
	// before transport comes up is hard here; instead check the router
	// side still works and speaker rejects a wrong OPEN by crafting one.
	if err := g.k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Deliver a spoofed OPEN with the wrong ASN on the established
	// session: FSM error path resets the session.
	open, err := wire.Marshal(wire.Open{AS: 99, HoldTimeSecs: 90})
	if err != nil {
		t.Fatal(err)
	}
	g.k.Go(func() { g.sess.Deliver(open) })
	if err := g.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if g.sess.State() == bgp.StateEstablished {
		t.Fatal("spoofed OPEN should reset the session")
	}
}

// announcedAttrs is a controller-built attribute set with every part
// Announce could alias: path segments, communities, aggregator, MED.
func announcedAttrs() wire.PathAttrs {
	med := uint32(7)
	return wire.PathAttrs{
		Origin:      wire.OriginIGP,
		ASPath:      wire.ASPath{{Type: wire.ASSequence, ASNs: []idr.ASN{10, 11}}, {Type: wire.ASSet, ASNs: []idr.ASN{5, 6}}},
		MED:         &med,
		Aggregator:  &wire.Aggregator{AS: 5, ID: netip.MustParseAddr("10.0.0.5")},
		Communities: []wire.Community{wire.NewCommunity(65000, 1)},
	}
}

// TestAnnounceNoopAllocatesNothing pins the compare-before-clone
// order: the controller re-announces every prefix on every session on
// every recompute, nearly always unchanged, and that path must not
// allocate.
func TestAnnounceNoopAllocatesNothing(t *testing.T) {
	g := newRig(t)
	if err := g.k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	pfx, attrs := netip.MustParsePrefix("10.0.10.0/24"), announcedAttrs()
	if err := g.sess.Announce(pfx, attrs); err != nil {
		t.Fatal(err)
	}
	sent := g.sent["speaker"]
	if allocs := testing.AllocsPerRun(100, func() {
		if err := g.sess.Announce(pfx, attrs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a repeated identical Announce allocates %v objects, want 0", allocs)
	}
	if got := g.sent["speaker"]; got != sent {
		t.Fatalf("repeated identical Announce sent %d more frames", got-sent)
	}
}

// TestAnnounceDoesNotAlias pins the other half: what a sending
// Announce keeps is a deep copy, so the caller may reuse or mutate its
// attributes afterwards without changing what was advertised or the
// verdict on a later identical announcement.
func TestAnnounceDoesNotAlias(t *testing.T) {
	g := newRig(t)
	if err := g.k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	pfx, attrs := netip.MustParsePrefix("10.0.10.0/24"), announcedAttrs()
	if err := g.sess.Announce(pfx, attrs); err != nil {
		t.Fatal(err)
	}
	attrs.ASPath[0].ASNs[1] = 99
	attrs.ASPath[1].ASNs[0] = 99
	attrs.Communities[0] = wire.CommunityNoExport
	*attrs.MED = 99
	attrs.Aggregator.AS = 99
	want := announcedAttrs()
	want.NextHop = netip.MustParseAddr("100.64.0.1")
	if got := g.sess.advertised[pfx]; !got.Equal(want) {
		t.Fatalf("advertised changed with the caller's attributes:\n got  %v\n want %v", got, want)
	}
	sent := g.sent["speaker"]
	if err := g.sess.Announce(pfx, announcedAttrs()); err != nil {
		t.Fatal(err)
	}
	if got := g.sent["speaker"]; got != sent {
		t.Fatal("re-announcing the original attributes was not a no-op")
	}
	if err := g.sess.Announce(pfx, attrs); err != nil {
		t.Fatal(err)
	}
	if got := g.sent["speaker"]; got != sent+1 {
		t.Fatalf("announcing the mutated attributes sent %d frames, want 1", got-sent)
	}
}
