package bgp

import (
	"bytes"
	"cmp"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// harness wires a router whose single peer's outbound frames are
// captured, so tests can inject crafted frames and observe replies.
type harness struct {
	k      *sim.Kernel
	r      *Router
	p      *Peer
	sent   [][]byte
	events []TraceEvent
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{k: sim.NewKernel(1)}
	r, err := New(Config{
		ASN:      1,
		RouterID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1")),
		Clock:    h.k,
		Rand:     h.k.Rand(),
		Timers:   Timers{MRAI: time.Second, MRAIJitter: false},
		Trace:    func(ev TraceEvent) { h.events = append(h.events, keepEvent(ev)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.AddPeer(PeerConfig{
		Key:       "to-AS2",
		RemoteASN: 2,
		NextHop:   netip.MustParseAddr("100.64.0.1"),
		Send: frames.SendFunc(func(b []byte) error {
			h.sent = append(h.sent, message(t, bytes.Clone(b))) // b is borrowed
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.r, h.p = r, p
	return h
}

// keepEvent copies what a trace event only borrows (see TraceEvent), so
// that a test may hold on to it.
func keepEvent(ev TraceEvent) TraceEvent {
	if ev.Update != nil {
		u := *ev.Update
		u.NLRI, u.Withdrawn = slices.Clone(u.NLRI), slices.Clone(u.Withdrawn)
		ev.Update = &u
	}
	if ev.Change != nil {
		c := *ev.Change
		ev.Change = &c
	}
	return ev
}

func (h *harness) lastSentType(t *testing.T) wire.MsgType {
	t.Helper()
	if len(h.sent) == 0 {
		t.Fatal("nothing sent")
	}
	m, err := wire.Unmarshal(h.sent[len(h.sent)-1])
	if err != nil {
		t.Fatal(err)
	}
	return m.Type()
}

func (h *harness) inject(t *testing.T, m wire.Message) {
	t.Helper()
	frame, err := wire.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	h.p.Deliver(frame)
}

// establish drives the session to Established by hand.
func (h *harness) establish(t *testing.T) {
	t.Helper()
	h.p.TransportUp()
	h.inject(t, wire.Open{AS: 2, HoldTimeSecs: 90,
		ID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.2"))})
	h.inject(t, wire.Keepalive{})
	if h.p.State() != StateEstablished {
		t.Fatalf("state = %v, want Established", h.p.State())
	}
}

// The session machine's own cases live in fsm_test.go (TestFSM); the
// tests below cover what a Peer adds around it: trace stamping, the
// router's counters, the initial table dump and the Adj-RIB flush.

func TestFSMHandshakeMessageOrder(t *testing.T) {
	h := newHarness(t)
	if err := h.r.Announce(netip.MustParsePrefix("10.0.1.0/24")); err != nil {
		t.Fatal(err)
	}
	h.establish(t)
	// Sent: OPEN, KEEPALIVE (confirming the peer's OPEN), then the
	// initial table dump, immediately on establishment.
	var sent []string
	for _, frame := range h.sent {
		m, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, m.Type().String())
	}
	if got := strings.Join(sent, " "); got != "OPEN KEEPALIVE UPDATE" {
		t.Fatalf("sent %q", got)
	}
	// Every session event reaches the router's trace stamped with the
	// router and the peer key.
	var trace []string
	for _, ev := range h.events {
		if ev.Kind == TraceBest {
			continue
		}
		if ev.Router != 1 || ev.Peer != "to-AS2" {
			t.Fatalf("trace event not stamped: %+v", ev)
		}
		switch ev.Kind {
		case TraceState:
			trace = append(trace, ev.State.String())
		case TraceSend:
			if ev.Update == nil {
				t.Fatalf("send traced without its UPDATE: %+v", ev)
			}
			trace = append(trace, "send-UPDATE")
		case TraceRecv:
			t.Fatalf("nothing was received but an OPEN and a KEEPALIVE, which are not traced: %+v", ev)
		}
	}
	want := "OpenSent OpenConfirm Established send-UPDATE"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace %q,\nwant  %q", got, want)
	}
	if st := h.r.Stats(); st.KeepalivesSent != 1 || st.UpdatesSent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFSMGarbageFrameTriggersNotification(t *testing.T) {
	h := newHarness(t)
	h.establish(t)
	h.p.Deliver(keepaliveWithBody(t))
	if h.lastSentType(t) != wire.MsgNotification {
		t.Fatal("decode error should elicit a NOTIFICATION")
	}
	if h.p.State() != StateIdle {
		t.Fatalf("state = %v after the NOTIFICATION, want Idle", h.p.State())
	}
}

func TestFSMNotificationResets(t *testing.T) {
	h := newHarness(t)
	h.establish(t)
	pfx := netip.MustParsePrefix("10.0.2.0/24")
	h.inject(t, wire.Update{
		Attrs: wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(2),
			NextHop: netip.MustParseAddr("100.64.0.2")},
		NLRI: []netip.Prefix{pfx},
	})
	if _, ok := h.r.Table().Best(pfx); !ok {
		t.Fatal("setup: route not learned")
	}
	h.inject(t, wire.Notification{Code: wire.NotifCease})
	if h.p.State() != StateIdle {
		t.Fatalf("state = %v, want Idle", h.p.State())
	}
	// The reset flushes what was learned on the session.
	if _, ok := h.r.Table().Best(pfx); ok {
		t.Fatal("route learned on the session survived its reset")
	}
	// With the transport still up, the session retries and reopens.
	if err := h.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.p.State() != StateOpenSent {
		t.Fatalf("state = %v, want OpenSent after retry", h.p.State())
	}
}

func TestFSMKeepalivesMaintainSession(t *testing.T) {
	h := newHarness(t)
	h.establish(t)
	// Feed keepalives every 20s; session must stay up well past the
	// 90s hold time.
	for i := 0; i < 10; i++ {
		if err := h.k.RunFor(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		h.inject(t, wire.Keepalive{})
	}
	if h.p.State() != StateEstablished {
		t.Fatalf("state = %v after 200s with keepalives", h.p.State())
	}
	// Our side's keepalives (hold/3 = 30s) are counted on the router:
	// one confirming the OPEN, six since.
	if got := h.r.Stats().KeepalivesSent; got != 7 {
		t.Fatalf("keepalives sent = %d", got)
	}
}

// denyImport is PermitAll that rejects the imports of listed prefixes.
type denyImport map[netip.Prefix]bool

func (d denyImport) Import(_ policy.Neighbor, r *rib.Route) bool { return !d[r.Prefix] }

func (denyImport) Export(policy.Neighbor, policy.Neighbor, *rib.Route) bool { return true }

func TestPolicyImportRejectionActsAsWithdraw(t *testing.T) {
	// A policy that rejects a prefix must also flush a previously
	// accepted route for it (treat-as-withdraw).
	k := sim.NewKernel(1)
	deny := netip.MustParsePrefix("10.0.9.0/24")
	pol := denyImport{}
	r, err := New(Config{
		ASN: 1, RouterID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1")),
		Clock: k, Rand: k.Rand(),
		Timers: Timers{MRAI: time.Second, MRAIJitter: false},
		Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent [][]byte
	p, err := r.AddPeer(PeerConfig{
		Key: "to-AS2", RemoteASN: 2,
		NextHop: netip.MustParseAddr("100.64.0.1"),
		Send:    frames.SendFunc(func(b []byte) error { sent = append(sent, bytes.Clone(b)); return nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.TransportUp()
	open, _ := wire.Marshal(wire.Open{AS: 2, HoldTimeSecs: 90})
	p.Deliver(open)
	ka, _ := wire.Marshal(wire.Keepalive{})
	p.Deliver(ka)
	announce := func() {
		u, _ := wire.Marshal(wire.Update{
			Attrs: wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(2),
				NextHop: netip.MustParseAddr("100.64.0.2")},
			NLRI: []netip.Prefix{deny},
		})
		p.Deliver(u)
	}
	announce()
	if _, ok := r.Table().Best(deny); !ok {
		t.Fatal("route should be accepted before the filter turns on")
	}
	// Turn the filter on and re-announce: the route must vanish.
	pol[deny] = true
	announce()
	if _, ok := r.Table().Best(deny); ok {
		t.Fatal("rejected re-announcement should act as withdrawal")
	}
}

func TestWriteRIBAndAdjIn(t *testing.T) {
	h := newHarness(t)
	h.establish(t)
	if err := h.r.Announce(netip.MustParsePrefix("10.0.1.0/24")); err != nil {
		t.Fatal(err)
	}
	h.inject(t, wire.Update{
		Attrs: wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(2),
			NextHop: netip.MustParseAddr("100.64.0.2")},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.2.0/24")},
	})
	var sb strings.Builder
	if err := h.r.WriteRIB(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"AS1 RIB (2 routes", "10.0.1.0/24", "local", "10.0.2.0/24", "path=[2]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RIB dump missing %q:\n%s", want, out)
		}
	}
}

// TestProcessingDelaySerializesUpdates delivers two UPDATEs back to
// back to a router with a processing delay: they are handled at least
// one delay apart. Every frame arrives in one buffer, overwritten once
// Deliver returns as the delivery that carried it would be by its next
// frame: a frame waiting for its turn must wait as the queue's own
// copy.
func TestProcessingDelaySerializesUpdates(t *testing.T) {
	k := sim.NewKernel(1)
	r, err := New(Config{
		ASN: 1, RouterID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1")),
		Clock: k, Rand: k.Rand(),
		Timers:          Timers{MRAI: time.Second, MRAIJitter: false},
		ProcessingDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.AddPeer(PeerConfig{
		Key: "to-AS2", RemoteASN: 2,
		NextHop: netip.MustParseAddr("100.64.0.1"),
		Send:    frames.SendFunc(func([]byte) error { return nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.TransportUp()
	var buf []byte // the one buffer every frame arrives in
	deliver := func(m wire.Message) {
		t.Helper()
		frame, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf[:0], frame...)
		p.Deliver(buf)
		for i := range buf {
			buf[i] = ^buf[i]
		}
	}
	deliver(wire.Open{AS: 2, HoldTimeSecs: 90})
	deliver(wire.Keepalive{})
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if p.State() != StateEstablished {
		t.Fatalf("state = %v (control messages must not be delayed)", p.State())
	}
	var times []time.Duration
	trace := r.cfg
	trace.Trace = func(ev TraceEvent) {
		if ev.Kind == TraceRecv {
			times = append(times, k.Elapsed())
		}
	}
	r.cfg = trace
	var prefixes []netip.Prefix
	for i := 0; i < 2; i++ {
		prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24))
		deliver(wire.Update{
			Attrs: wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(2),
				NextHop: netip.MustParseAddr("100.64.0.2")},
			NLRI: []netip.Prefix{prefixes[i]},
		})
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("updates processed = %d", len(times))
	}
	for _, prefix := range prefixes {
		if _, ok := r.Table().Best(prefix); !ok || p.State() != StateEstablished {
			t.Fatalf("no route to %v (session %v): its UPDATE was read after its buffer was reused", prefix, p.State())
		}
	}
	if gap := times[1] - times[0]; gap < 10*time.Millisecond {
		t.Fatalf("updates processed only %v apart; want serialized", gap)
	}
	// Config validation for the delay model.
	if _, err := New(Config{ASN: 1, Clock: k, ProcessingDelay: -time.Second}); err == nil {
		t.Fatal("negative delay should error")
	}
	if _, err := New(Config{ASN: 1, Clock: k, Timers: Timers{MRAIJitter: false}, ProcessingDelay: time.Second}); err == nil {
		t.Fatal("delay without rand should error")
	}
}

// sanity: topology import used by the lab helper stays referenced.
var _ = topology.KindPeer

// TestReceiveAllocatesOnlyItsRoute pins what a received UPDATE leaves
// behind: on an established session, traced, a single-prefix
// announcement allocates the route it installs and that route's AS
// path — what BGP says an UPDATE leaves in an Adj-RIB-In — and nothing else: no boxed message, no prefix list, no
// copy of the Loc-RIB change for the trace. A withdrawal allocates
// nothing at all.
func TestReceiveAllocatesOnlyItsRoute(t *testing.T) {
	h := newHarness(t)
	traced := 0
	h.r.cfg.Trace = func(ev TraceEvent) { traced++ }
	h.establish(t)
	pfx := netip.MustParsePrefix("10.0.2.0/24")
	var announce [2][]byte
	for i := range announce {
		announce[i] = mustFrame(t, wire.Update{
			Attrs: wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(2, idr.ASN(3+i)),
				NextHop: netip.MustParseAddr("100.64.0.2")},
			NLRI: []netip.Prefix{pfx},
		})
	}
	withdraw := mustFrame(t, wire.Update{Withdrawn: []netip.Prefix{pfx}})
	h.p.Deliver(announce[0]) // the session's decode storage and the RIB's map entries exist from here on
	h.p.Deliver(withdraw)

	i := 0
	if got := testing.AllocsPerRun(100, func() {
		i++
		h.p.Deliver(announce[i%2]) // a different path every time: the best route changes
	}); got != 2 {
		t.Errorf("a received announcement allocates %v times, want 2: the route and its path", got)
	}
	if best, ok := h.r.Table().Best(pfx); !ok || !best.Attrs.ASPath.Equal(wire.NewASPath(2, idr.ASN(3+i%2))) {
		t.Fatalf("the last announcement did not install: %v, %v", best, ok)
	}
	if got := testing.AllocsPerRun(100, func() {
		h.p.Deliver(withdraw)
	}); got != 0 {
		t.Errorf("a received withdrawal allocates %v times, want 0", got)
	}
	if traced < 300 {
		t.Fatalf("the trace saw %d events; receives and best-route changes must all reach it", traced)
	}
}

// packedUpdate is one UPDATE of an announcement batch.
type packedUpdate struct {
	attrs wire.PathAttrs
	nlri  []netip.Prefix
}

// groupByPointer is the batch packing flushAnnouncements used before it
// stopped building a heap object per attribute group, kept verbatim as
// the oracle: groups found in address order by structural equality,
// sorted stably by their rendering.
func groupByPointer(pending map[netip.Prefix]wire.PathAttrs) []packedUpdate {
	type group struct {
		attrs    wire.PathAttrs
		key      string
		prefixes []netip.Prefix
	}
	var groups []*group
	for _, prefix := range idr.SortedPrefixes(pending) {
		attrs := pending[prefix]
		var g *group
		for _, have := range groups {
			if have.attrs.Equal(attrs) {
				g = have
				break
			}
		}
		if g == nil {
			g = &group{attrs: attrs}
			groups = append(groups, g)
		}
		g.prefixes = append(g.prefixes, prefix)
	}
	if len(groups) > 1 {
		for _, g := range groups {
			g.key = g.attrs.String()
		}
		slices.SortStableFunc(groups, func(a, b *group) int { return cmp.Compare(a.key, b.key) })
	}
	var out []packedUpdate
	for _, g := range groups {
		out = append(out, packedUpdate{g.attrs, g.prefixes})
	}
	return out
}

// TestAnnounceBatchPackingModel flushes random announcement batches —
// one prefix, one group, many groups, equal groups built apart — and
// requires the UPDATEs sent to be the oracle's, in its order, each with
// an NLRI slice appending to which cannot reach the next one's.
func TestAnnounceBatchPackingModel(t *testing.T) {
	h := newHarness(t)
	h.establish(t)
	nh := netip.MustParseAddr("100.64.0.1")
	med := uint32(5)
	pool := []wire.PathAttrs{
		{ASPath: wire.NewASPath(1, 7), NextHop: nh},
		{ASPath: wire.NewASPath(1, 7), NextHop: nh}, // equal to the first, built apart
		{ASPath: wire.NewASPath(1, 3, 9), NextHop: nh},
		{ASPath: wire.NewASPath(1, 3, 9), NextHop: nh, MED: &med},
		{ASPath: wire.NewASPath(1), NextHop: nh},
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		pending := make(map[netip.Prefix]wire.PathAttrs)
		for n := 1 + rng.Intn(12); n > 0; n-- {
			prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(8)), 0}), 24)
			pending[prefix] = pool[rng.Intn(1+rng.Intn(len(pool)))]
		}
		want := groupByPointer(pending)
		for _, prefix := range idr.SortedPrefixes(pending) {
			h.p.queue(h.p.advertFor(prefix), queueAnnounce, pending[prefix])
		}
		var got []packedUpdate
		h.r.cfg.Trace = func(ev TraceEvent) {
			if u := ev.Update; u != nil && ev.Kind == TraceSend {
				if cap(u.NLRI) != len(u.NLRI) {
					t.Errorf("round %d, UPDATE %d: NLRI has room for %d more prefixes of its batch", round, len(got), cap(u.NLRI)-len(u.NLRI))
				}
				got = append(got, packedUpdate{u.Attrs, slices.Clone(u.NLRI)})
			}
		}
		h.p.flushAnnouncements()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d UPDATEs for %d prefixes, want %d", round, len(got), len(pending), len(want))
		}
		for i := range want {
			if !got[i].attrs.Equal(want[i].attrs) || !slices.Equal(got[i].nlri, want[i].nlri) {
				t.Fatalf("round %d, UPDATE %d: %v %v, want %v %v", round, i, got[i].attrs, got[i].nlri, want[i].attrs, want[i].nlri)
			}
			for _, prefix := range got[i].nlri {
				if a := h.p.adverts[prefix]; a == nil || !a.out || !a.sent.Equal(got[i].attrs) {
					t.Fatalf("round %d: Adj-RIB-Out record for %v is %+v, sent %v", round, prefix, a, got[i].attrs)
				}
			}
		}
		if h.p.nqueued != 0 || h.p.queued != nil {
			t.Fatalf("round %d: %d changes still queued after the flush", round, h.p.nqueued)
		}
		for prefix, a := range h.p.adverts {
			if a.change != queueNone || a.listed {
				t.Fatalf("round %d: the record for %v still holds change %d (listed %v)", round, prefix, a.change, a.listed)
			}
		}
	}
}
