package core

import (
	"bytes"
	"errors"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sdn/ofp"
	"repro/internal/sim"
)

// capture collects the OpenFlow messages sent to one member switch;
// while down, the control channel refuses every frame.
type capture struct {
	frames [][]byte
	down   bool
}

var errChannelDown = errors.New("control channel down")

func (c *capture) send(b []byte) error {
	if c.down {
		return errChannelDown
	}
	c.frames = append(c.frames, openflow(bytes.Clone(b))) // b is borrowed
	return nil
}

// openflow is the OpenFlow message inside a control link frame, as the
// member node's demultiplexer hands it on; nil, which no decoder
// accepts, when the frame is not one.
func openflow(frame []byte) []byte {
	kind, msg, err := frames.Decode(frame)
	if err != nil || kind != frames.KindOpenFlow {
		return nil
	}
	return msg
}

// flowMods decodes the captured FlowMod messages.
func (c *capture) flowMods(t *testing.T) []ofp.FlowMod {
	t.Helper()
	var out []ofp.FlowMod
	for _, f := range c.frames {
		msg, _, err := ofp.Unmarshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if fm, ok := msg.(ofp.FlowMod); ok {
			out = append(out, fm)
		}
	}
	return out
}

// testCluster builds a controller with members 11,12,13 in a line
// (11-12-13), a capture per member, and an established external
// session on 11 port 2 toward legacy AS 2 and on 13 port 2 toward
// legacy AS 3.
func testCluster(t *testing.T) (*Controller, *sim.Kernel, map[idr.ASN]*capture) {
	t.Helper()
	k := sim.NewKernel(1)
	c, err := New(Config{Clock: k, Debounce: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	caps := map[idr.ASN]*capture{11: {}, 12: {}, 13: {}}
	for asn, cp := range caps {
		if err := c.AddMember(asn, cp.send); err != nil {
			t.Fatal(err)
		}
	}
	// Switch graph: 11 port1 <-> 12 port1; 12 port2 <-> 13 port1.
	mustRegister := func(m idr.ASN, port uint32, nb idr.ASN, member bool) {
		t.Helper()
		if err := c.RegisterPort(m, port, nb, member); err != nil {
			t.Fatal(err)
		}
	}
	mustRegister(11, 1, 12, true)
	mustRegister(12, 1, 11, true)
	mustRegister(12, 2, 13, true)
	mustRegister(13, 1, 12, true)
	mustRegister(11, 2, 2, false)
	mustRegister(13, 2, 3, false)
	id := func(a idr.ASN) idr.RouterID {
		return idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(a)}))
	}
	if err := c.AddExternalPeering(11, 2, 2, id(11), netip.MustParseAddr("100.64.0.1")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddExternalPeering(13, 2, 3, id(13), netip.MustParseAddr("100.64.0.5")); err != nil {
		t.Fatal(err)
	}
	// Mark the sessions established without running the FSM: these
	// white-box tests exercise the graph logic, not the sessions.
	for _, es := range c.sessions {
		es.established = true
	}
	return c, k, caps
}

var testPrefix = netip.MustParsePrefix("10.0.2.0/24")

func extAttrs(path ...idr.ASN) *wire.PathAttrs {
	return &wire.PathAttrs{
		Origin:  wire.OriginIGP,
		ASPath:  wire.NewASPath(path...),
		NextHop: netip.MustParseAddr("100.64.0.2"),
	}
}

// routed computes prefix's routes on the current view and returns the
// view with each member's index.
func routed(c *Controller, prefix netip.Prefix) (*view, map[idr.ASN]int32) {
	v := c.graph()
	c.route(v, prefix)
	return v, v.index
}

// failLink1213 takes the 12<->13 link down on both ends, as the two
// PortStatus messages would.
func failLink1213(c *Controller) {
	c.members[12].ports[2].up = false
	c.members[13].ports[1].up = false
	c.invalidate()
}

func TestSubClusters(t *testing.T) {
	c, _, _ := testCluster(t)
	v := c.graph()
	at := v.index
	if v.comp[at[11]] != v.comp[at[12]] || v.comp[at[12]] != v.comp[at[13]] {
		t.Fatalf("connected cluster should be one component: %v", v.comp)
	}
	// Fail 12<->13: splits into {11,12} and {13}.
	failLink1213(c)
	v = c.graph()
	if v.comp[at[11]] != v.comp[at[12]] {
		t.Fatal("11 and 12 should stay together")
	}
	if v.comp[at[13]] == v.comp[at[11]] {
		t.Fatal("13 should be isolated")
	}
}

func TestDijkstraExternalPrefix(t *testing.T) {
	c, _, _ := testCluster(t)
	// Route learned only at border 11 from AS 2 with path [2].
	c.learn(SessKey{Border: 11, Port: 2}, testPrefix, extAttrs(2))
	v, at := routed(c, testPrefix)
	// 11 exits directly: cost 1 + len([2]) = 2.
	if v.dist[at[11]] != 2 {
		t.Fatalf("dist[11] = %d, want 2", v.dist[at[11]])
	}
	if v.dist[at[12]] != 3 || v.dist[at[13]] != 4 {
		t.Fatalf("dist = %v", v.dist)
	}
	if v.next[at[12]] != at[11] || v.next[at[13]] != at[12] {
		t.Fatalf("next = %v", v.next)
	}
	if v.next[at[11]] >= 0 || v.best[at[11]].key != (SessKey{Border: 11, Port: 2}) {
		t.Fatalf("11 should exit directly: next = %v, best = %v", v.next, v.best)
	}
	path, last, ok := v.internalPath(at[13])
	if !ok || len(path) != 3 || path[0] != 13 || path[2] != 11 || last != at[11] {
		t.Fatalf("internalPath(13) = %v ending at %d", path, last)
	}
}

func TestDijkstraPrefersShorterExternalPath(t *testing.T) {
	c, _, _ := testCluster(t)
	// Border 11 hears a long path, border 13 a short one.
	c.learn(SessKey{Border: 11, Port: 2}, testPrefix, extAttrs(2, 7, 8, 9))
	c.learn(SessKey{Border: 13, Port: 2}, testPrefix, extAttrs(3))
	v, at := routed(c, testPrefix)
	// 12 should prefer egress via 13 (cost 2+1=3) over 11 (cost 5+1).
	if v.next[at[12]] != at[13] {
		t.Fatalf("next[12] = %v, want 13", v.next[at[12]])
	}
	// 11 itself: direct exit costs 5; via 12,13 costs 2+2=4 -> transit.
	if v.next[at[11]] != at[12] {
		t.Fatalf("next[11] = %v, want 12 (transit beats long exit)", v.next[at[11]])
	}
	if port, _ := v.outPort(at[11]); port != 1 {
		t.Fatalf("11 should forward on port 1 toward 12, not exit: port %d", port)
	}
}

func TestCandidateLoopAvoidance(t *testing.T) {
	c, _, _ := testCluster(t)
	// External path re-entering the cluster (contains member 12):
	// unusable from any border in the same component.
	c.learn(SessKey{Border: 11, Port: 2}, testPrefix, extAttrs(2, 12, 5))
	usable := func() (n int) {
		v, _ := routed(c, testPrefix)
		for _, cand := range v.best {
			if cand.cost != 0 {
				n++
			}
		}
		return n
	}
	if usable() != 0 {
		t.Fatalf("re-entering path must be filtered, got %v", c.view.best)
	}
	// After a partition isolating 13, a path through 13 is usable
	// from component {11,12} (sub-clusters reach each other over the
	// legacy world).
	failLink1213(c)
	c.learn(SessKey{Border: 11, Port: 2}, testPrefix, extAttrs(2, 13, 5))
	if usable() != 1 {
		t.Fatalf("cross-sub-cluster path should be usable, got %v", c.view.best)
	}
}

func TestDijkstraOwnedPrefix(t *testing.T) {
	c, _, _ := testCluster(t)
	owned := netip.MustParsePrefix("10.0.13.0/24")
	if err := c.OriginatePrefix(13, owned); err != nil {
		t.Fatal(err)
	}
	v, at := routed(c, owned)
	if v.owner != at[13] || v.dist[at[13]] != 0 {
		t.Fatalf("owner routing wrong: owner=%d dist=%v", v.owner, v.dist)
	}
	if v.dist[at[11]] != 2 || v.next[at[11]] != at[12] {
		t.Fatalf("11's path to owner wrong: dist=%v next=%v", v.dist, v.next)
	}
}

func TestPushFlowsProgramsSwitches(t *testing.T) {
	c, k, caps := testCluster(t)
	c.learn(SessKey{Border: 11, Port: 2}, testPrefix, extAttrs(2))
	if err := k.Run(); err != nil { // debounce fires, recompute runs
		t.Fatal(err)
	}
	// Member 13 forwards toward 12 (its port 1).
	mods := caps[13].flowMods(t)
	if len(mods) != 1 || mods[0].Command != ofp.FlowAdd || mods[0].OutPort != 1 {
		t.Fatalf("member 13 flow mods = %v", mods)
	}
	// Member 12 forwards toward 11 (its port 1).
	mods = caps[12].flowMods(t)
	if len(mods) != 1 || mods[0].OutPort != 1 {
		t.Fatalf("member 12 flow mods = %v", mods)
	}
	// Border 11 exits on its external port 2.
	mods = caps[11].flowMods(t)
	if len(mods) != 1 || mods[0].OutPort != 2 {
		t.Fatalf("member 11 flow mods = %v", mods)
	}
	if c.Stats().FlowModsSent != 3 || c.Stats().Recomputes != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestWithdrawalRemovesFlows(t *testing.T) {
	c, k, caps := testCluster(t)
	key := SessKey{Border: 11, Port: 2}
	c.learn(key, testPrefix, extAttrs(2))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	c.learn(key, testPrefix, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	mods := caps[12].flowMods(t)
	last := mods[len(mods)-1]
	if last.Command != ofp.FlowDelete || last.Match != testPrefix {
		t.Fatalf("expected FlowDelete, got %v", last)
	}
}

func TestDebounceBatchesRecomputes(t *testing.T) {
	c, k, _ := testCluster(t)
	key := SessKey{Border: 11, Port: 2}
	// A burst of 10 route events within the debounce window yields one
	// recomputation (the paper's rate-limiting insight).
	for i := 0; i < 10; i++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
		c.learn(key, pfx, extAttrs(2))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Recomputes; got != 1 {
		t.Fatalf("recomputes = %d, want 1 (debounced)", got)
	}
}

func TestNoDebounceAblation(t *testing.T) {
	k := sim.NewKernel(1)
	c, err := New(Config{Clock: k, Debounce: -1})
	if err != nil {
		t.Fatal(err)
	}
	cp := &capture{}
	if err := c.AddMember(11, cp.send); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterPort(11, 1, 2, false); err != nil {
		t.Fatal(err)
	}
	id := idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.11"))
	if err := c.AddExternalPeering(11, 1, 2, id, netip.MustParseAddr("100.64.0.1")); err != nil {
		t.Fatal(err)
	}
	for _, es := range c.sessions {
		es.established = true
	}
	key := SessKey{Border: 11, Port: 1}
	for i := 0; i < 5; i++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
		c.learn(key, pfx, extAttrs(2))
	}
	if got := c.Stats().Recomputes; got != 5 {
		t.Fatalf("recomputes = %d, want 5 (no debounce)", got)
	}
}

func TestAnnouncementForTransparency(t *testing.T) {
	c, k, _ := testCluster(t)
	// Route at border 11 from AS2 path [2 9]. Border 13's announcement
	// to AS3 must carry the full internal path [13 12 11] + [2 9].
	c.learn(SessKey{Border: 11, Port: 2}, testPrefix, extAttrs(2, 9))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	v, at := routed(c, testPrefix)
	a := v.announcement(at[13])
	if !a.allowedOn(c.sessions[SessKey{Border: 13, Port: 2}]) {
		t.Fatal("13 should announce to AS3")
	}
	want := wire.NewASPath(13, 12, 11, 2, 9)
	if !a.attrs.ASPath.Equal(want) {
		t.Fatalf("announced path = %v, want %v", a.attrs.ASPath, want)
	}
	// Border 11 must NOT announce back to AS2 (split horizon).
	if v.announcement(at[11]).allowedOn(c.sessions[SessKey{Border: 11, Port: 2}]) {
		t.Fatal("split horizon violated")
	}
}

func TestAnnouncementSkipsReceiverLoop(t *testing.T) {
	c, k, _ := testCluster(t)
	// Path already contains AS3 — announcing to AS3 would loop.
	c.learn(SessKey{Border: 11, Port: 2}, testPrefix, extAttrs(2, 3))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	v, at := routed(c, testPrefix)
	if v.announcement(at[13]).allowedOn(c.sessions[SessKey{Border: 13, Port: 2}]) {
		t.Fatal("announcement containing the receiver must be skipped")
	}
}

func TestOwnedPrefixAnnouncement(t *testing.T) {
	c, k, _ := testCluster(t)
	owned := netip.MustParsePrefix("10.0.13.0/24")
	if err := c.OriginatePrefix(13, owned); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s11 := c.sessions[SessKey{Border: 11, Port: 2}]
	v, at := routed(c, owned)
	a := v.announcement(at[11])
	if !a.allowedOn(s11) {
		t.Fatal("owned prefix should be announced at border 11")
	}
	if want := wire.NewASPath(11, 12, 13); !a.attrs.ASPath.Equal(want) {
		t.Fatalf("owned path = %v, want %v", a.attrs.ASPath, want)
	}
	// Withdrawing removes it.
	if err := c.WithdrawOriginated(owned); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	v, at = routed(c, owned)
	if v.announcement(at[11]).allowedOn(s11) {
		t.Fatal("withdrawn prefix still announced")
	}
	if err := c.WithdrawOriginated(owned); err == nil {
		t.Fatal("double withdraw should error")
	}
}

func TestPartitionIsolatesRouting(t *testing.T) {
	c, k, caps := testCluster(t)
	c.learn(SessKey{Border: 11, Port: 2}, testPrefix, extAttrs(2))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Partition: ports on the 12<->13 link go down (PortStatus).
	ps, _ := ofp.Marshal(ofp.PortStatus{Port: 2, Up: false}, 1)
	if err := c.HandleControl(12, ps); err != nil {
		t.Fatal(err)
	}
	ps13, _ := ofp.Marshal(ofp.PortStatus{Port: 1, Up: false}, 1)
	if err := c.HandleControl(13, ps13); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 13 has no path now: its last flow mod must be a delete.
	mods := caps[13].flowMods(t)
	last := mods[len(mods)-1]
	if last.Command != ofp.FlowDelete {
		t.Fatalf("13 should lose its flow after partition, got %v", last)
	}
	// 12 still routes via 11.
	mods = caps[12].flowMods(t)
	last = mods[len(mods)-1]
	if last.Command != ofp.FlowAdd || last.OutPort != 1 {
		t.Fatalf("12 should still route via 11, got %v", last)
	}
}

func TestConfigAndWiringValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing clock should error")
	}
	k := sim.NewKernel(1)
	c, err := New(Config{Clock: k})
	if err != nil {
		t.Fatal(err)
	}
	send := func([]byte) error { return nil }
	if err := c.AddMember(0, send); err == nil {
		t.Fatal("zero ASN should error")
	}
	if err := c.AddMember(1, nil); err == nil {
		t.Fatal("nil send should error")
	}
	if err := c.AddMember(1, send); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMember(1, send); err == nil {
		t.Fatal("duplicate member should error")
	}
	if err := c.RegisterPort(9, 1, 2, false); err == nil {
		t.Fatal("unknown member should error")
	}
	if err := c.RegisterPort(1, 1, 5, true); err == nil {
		t.Fatal("intra-cluster to non-member should error")
	}
	if err := c.RegisterPort(1, 1, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterPort(1, 1, 2, false); err == nil {
		t.Fatal("duplicate port should error")
	}
	id := idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1"))
	nh := netip.MustParseAddr("100.64.0.1")
	if err := c.AddExternalPeering(9, 1, 2, id, nh); err == nil {
		t.Fatal("unknown member peering should error")
	}
	if err := c.AddExternalPeering(1, 9, 2, id, nh); err == nil {
		t.Fatal("unknown port peering should error")
	}
	if err := c.AddExternalPeering(1, 1, 2, id, nh); err != nil {
		t.Fatal(err)
	}
	if err := c.AddExternalPeering(1, 1, 3, id, nh); err == nil {
		t.Fatal("duplicate peering should error")
	}
	if err := c.OriginatePrefix(9, testPrefix); err == nil {
		t.Fatal("originate at non-member should error")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("double start should error")
	}
	if err := c.HandleControl(9, nil); err == nil {
		t.Fatal("control from unknown member should error")
	}
	if err := c.HandleControl(1, []byte{1}); err == nil {
		t.Fatal("garbage control frame should error")
	}
	if !c.IsMember(1) || c.IsMember(9) {
		t.Fatal("IsMember wrong")
	}
	if len(c.Members()) != 1 {
		t.Fatal("Members wrong")
	}
	if (SessKey{Border: 1, Port: 2}).String() == "" {
		t.Fatal("SessKey.String empty")
	}
}

// TestExternalSessionFollowsConfiguredTimers pins that the cluster's
// external sessions run on Config.Timers, like the legacy routers they
// peer with: a border session and a bgp.Router share one kernel, the
// controller's OPEN proposes the configured hold time, and the
// negotiated session keeps alive every third of it — not on the 90s
// default the router proposes.
func TestExternalSessionFollowsConfiguredTimers(t *testing.T) {
	const hold = 9 * time.Second
	k := sim.NewKernel(1)
	c, err := New(Config{Clock: k, Debounce: -1, Timers: bgp.Timers{HoldTime: hold}})
	if err != nil {
		t.Fatal(err)
	}
	router, err := bgp.New(bgp.Config{
		ASN:      2,
		RouterID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.2")),
		Clock:    k,
		Rand:     k.Rand(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The member switch, reduced to its relay role: PacketOut payloads
	// go to the router, the router's frames come back as PacketIn.
	var opens []wire.Open
	var keepalives []time.Duration
	toRouter := relay(func(frame []byte) error {
		_, bgpFrame, err := frames.Decode(bytes.Clone(frame)) // delivered later; frame is borrowed
		if err != nil {
			return err
		}
		switch m, _ := wire.Unmarshal(bgpFrame); m := m.(type) {
		case wire.Open:
			opens = append(opens, m)
		case wire.Keepalive:
			keepalives = append(keepalives, k.Now().Sub(sim.Epoch))
		}
		k.Go(func() { router.Peers()["to-AS11"].Deliver(bgpFrame) })
		return nil
	})
	toController := func(frame []byte) error {
		_, bgpFrame, err := frames.Decode(frame)
		if err != nil {
			return err
		}
		pin, err := ofp.Marshal(ofp.PacketIn{InPort: 2, Data: bgpFrame}, 1)
		if err != nil {
			return err
		}
		k.Go(func() {
			if err := c.HandleControl(11, pin); err != nil {
				t.Error(err)
			}
		})
		return nil
	}
	if err := c.AddMember(11, toRouter); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterPort(11, 2, 2, false); err != nil {
		t.Fatal(err)
	}
	localID := idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.11"))
	if err := c.AddExternalPeering(11, 2, 2, localID, netip.MustParseAddr("100.64.0.1")); err != nil {
		t.Fatal(err)
	}
	peer, err := router.AddPeer(bgp.PeerConfig{
		Key: "to-AS11", RemoteASN: 11, NextHop: netip.MustParseAddr("100.64.0.2"), Send: frames.SendFunc(toController),
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := c.sessions[SessKey{Border: 11, Port: 2}].fsm

	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	peer.TransportUp()
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sess.State() != bgp.StateEstablished || peer.State() != bgp.StateEstablished {
		t.Fatalf("setup: controller %v, router %v", sess.State(), peer.State())
	}

	if len(opens) != 1 || opens[0].HoldTimeSecs != uint16(hold/time.Second) {
		t.Fatalf("controller OPENs %+v, want one proposing the configured %v hold time", opens, hold)
	}

	// Past the router's 90s proposal the session still stands, kept
	// alive every hold/3 of the negotiated 9s.
	keepalives = nil
	if err := k.RunFor(4 * hold); err != nil {
		t.Fatal(err)
	}
	if sess.State() != bgp.StateEstablished || peer.State() != bgp.StateEstablished {
		t.Fatalf("after %v: controller %v, router %v", 4*hold, sess.State(), peer.State())
	}
	if len(keepalives) < 2 {
		t.Fatalf("controller sent %d keepalives in %v, want one every %v", len(keepalives), 4*hold, hold/3)
	}
	for i := 1; i < len(keepalives); i++ {
		if d := keepalives[i] - keepalives[i-1]; d != hold/3 {
			t.Fatalf("keepalives %v apart, want hold/3 = %v", d, hold/3)
		}
	}
}

// TestRecomputeAllDirtyLeftoverOrder pins the order of a full
// recomputation's tail: prefixes that lost all state inside the window
// that also marked everything dirty (RemoveMember tears sessions down,
// then marks all dirty) are cleaned up after the known prefixes, in
// prefix order — not in the dirty map's iteration order, which gave 6
// FlowMod orders in 40 identical runs.
func TestRecomputeAllDirtyLeftoverOrder(t *testing.T) {
	key := SessKey{Border: 11, Port: 2}
	var prefixes []netip.Prefix
	for i := 0; i < 6; i++ {
		prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24))
	}
	for run := 0; run < 40; run++ {
		c, k, caps := testCluster(t)
		for _, p := range prefixes {
			c.learn(key, p, extAttrs(2))
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		learned := len(caps[12].flowMods(t))
		for _, p := range prefixes {
			c.learn(key, p, nil)
		}
		c.markAllDirty()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var got []netip.Prefix
		for _, fm := range caps[12].flowMods(t)[learned:] {
			got = append(got, fm.Match)
		}
		if !slices.Equal(got, prefixes) {
			t.Fatalf("run %d: cleanup FlowMods for %v, want prefix order %v", run, got, prefixes)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race
// (race_test.go sets it).
var raceEnabled bool

// establishedLine builds a started controller with members 11 - 12 -
// 13 in a line, every control channel sending through send, and an
// established external peering on port 2 of each: 11 with AS 2, 12
// with AS 3, 13 with AS 4.
func establishedLine(t *testing.T, send func([]byte) error) *Controller {
	t.Helper()
	c, err := New(Config{Clock: sim.NewKernel(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range []idr.ASN{11, 12, 13} {
		if err := c.AddMember(asn, send); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []struct {
		m    idr.ASN
		port uint32
		nb   idr.ASN
	}{{11, 1, 12}, {12, 1, 11}, {12, 3, 13}, {13, 1, 12}} {
		if err := c.RegisterPort(p.m, p.port, p.nb, true); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range []idr.ASN{11, 12, 13} {
		remote := idr.ASN(2 + i)
		if err := c.RegisterPort(m, 2, remote, false); err != nil {
			t.Fatal(err)
		}
		id := idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(m)}))
		if err := c.AddExternalPeering(m, 2, remote, id, netip.AddrFrom4([4]byte{100, 64, 0, byte(m)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for _, key := range c.sessionKeys() {
		remote := c.sessions[key].remote
		for _, msg := range []wire.Message{
			wire.Open{AS: remote, HoldTimeSecs: 90, ID: idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 1, byte(remote)}))},
			wire.Keepalive{},
		} {
			frame, err := wire.Marshal(msg)
			if err != nil {
				t.Fatal(err)
			}
			pin, err := ofp.Marshal(ofp.PacketIn{InPort: key.Port, Data: frame}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.HandleControl(key.Border, pin); err != nil {
				t.Fatal(err)
			}
		}
		if !c.sessions[key].established {
			t.Fatalf("session %v not established", key)
		}
	}
	return c
}

// TestRecomputeAllocatesOnlyFlowMods pins the cost of the controller's
// steady state: recomputing a prefix whose announcements are all
// unchanged sends one FlowMod per member and allocates nothing — the
// FlowMods are encoded in the controller's control frame storage, and
// nothing is allocated per session, whether each border's record
// stands in for its sessions, or (a session event voided the records)
// each border's path is built in the view's storage and each session
// compares before it copies.
func TestRecomputeAllocatesOnlyFlowMods(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	var sent int
	c := establishedLine(t, func([]byte) error { sent++; return nil })
	// An external route learned at 13 and a prefix 12 originates: every
	// member forwards, 11 and 12 announce across the cluster on their
	// own sessions, 13's announcement of the external route is split
	// horizon's to withhold.
	external, owned := netip.MustParsePrefix("10.0.4.0/24"), netip.MustParsePrefix("10.0.12.0/24")
	c.learn(SessKey{Border: 13, Port: 2}, external, extAttrs(4, 7))
	if err := c.OriginatePrefix(12, owned); err != nil {
		t.Fatal(err)
	}
	c.recompute()
	for _, p := range []netip.Prefix{external, owned} {
		sessions := 0
		for _, es := range c.sessions {
			if _, ok := es.advertised[p]; ok {
				sessions++
			}
		}
		if sessions < 2 {
			t.Fatalf("%v announced on %d sessions, want at least 2", p, sessions)
		}
		for _, void := range []bool{false, true} {
			sent = 0
			n := testing.AllocsPerRun(100, func() {
				if void {
					c.sessGen++
				}
				c.recomputePrefix(c.graph(), p)
			})
			if n != 0 {
				t.Errorf("%v (records void %v): an unchanged recompute allocates %v objects, want 0", p, void, n)
			}
			if sent != 3*101 {
				t.Errorf("%v (records void %v): %d control frames in 101 recomputes, want only the FlowMods", p, void, sent)
			}
		}
	}
}

// TestRecomputeSkipsUnchangedBorders drives the skip path: a prefix
// recomputed while every border's announcement and every session stay
// as they were sends no UPDATE, and its announce and withdraw counters
// move by exactly what the per-session loop would have counted — the
// oracle's loop, run afterwards, finds only no-ops and counts the same.
func TestRecomputeSkipsUnchangedBorders(t *testing.T) {
	var frames [][]byte
	c := establishedLine(t, func(f []byte) error { frames = append(frames, openflow(bytes.Clone(f))); return nil })
	external, owned := netip.MustParsePrefix("10.0.4.0/24"), netip.MustParsePrefix("10.0.12.0/24")
	c.learn(SessKey{Border: 13, Port: 2}, external, extAttrs(4, 7))
	if err := c.OriginatePrefix(12, owned); err != nil {
		t.Fatal(err)
	}
	c.recompute()
	// Both prefixes dirty again, neither answer changed: 11 learns a
	// route longer than its path through the cluster (cost 6 against
	// 5), and the owned prefix is only marked.
	c.learn(SessKey{Border: 11, Port: 2}, external, extAttrs(2, 8, 9, 10, 7))
	c.markDirty(owned)
	for _, p := range []netip.Prefix{external, owned} {
		v := c.graph()
		c.route(v, p)
		pr := c.records[p]
		for g, lo := range v.groups {
			if rec := &pr.borders[g]; rec.gen != c.sessGen || !v.unchanged(v.sess[lo].border, rec, pr.next) {
				t.Fatalf("%v: border %v's record does not stand: %+v", p, v.asns[v.sess[lo].border], *rec)
			}
		}
	}
	frames = frames[:0]
	before := c.Stats()
	c.recompute()
	for _, f := range frames {
		if ofp.PeekType(f) != ofp.TypeFlowMod {
			msg, _, _ := ofp.Unmarshal(f)
			t.Fatalf("a recompute with unchanged borders sent %+v", msg)
		}
	}
	skipped := c.Stats()
	for _, p := range []netip.Prefix{external, owned} {
		c.updateAnnouncements(p, c.dijkstra(p, c.subClusters()))
	}
	if len(frames) != 2*3 {
		t.Fatalf("%d control frames, want the 6 FlowMods and nothing from the oracle's loop", len(frames))
	}
	after := c.Stats()
	gotA, gotW := skipped.AnnounceCommands-before.AnnounceCommands, skipped.WithdrawCommands-before.WithdrawCommands
	wantA, wantW := after.AnnounceCommands-skipped.AnnounceCommands, after.WithdrawCommands-skipped.WithdrawCommands
	if gotA != wantA || gotW != wantW || gotA != 2+3 || gotW != 1 {
		t.Fatalf("skipped borders counted %d announce and %d withdraw commands; the per-session loop counts %d and %d (want 5 and 1)", gotA, gotW, wantA, wantW)
	}
}
