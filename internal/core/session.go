package core

import (
	"fmt"
	"net/netip"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
)

// extSession is one external eBGP peering, terminated by the controller
// on behalf of a border member: the cluster BGP speaker of the paper's
// architecture (§3), which "relays routing information between external
// BGP routers and the SDN controller". The member keeps its AS
// identity, so the session speaks with the member's ASN and router ID.
// It runs no decision process: a received UPDATE goes straight into the
// route computation, and announcements go out only when a recompute
// commands them, with fully formed attributes carrying the
// cluster-internal AS path.
type extSession struct {
	c      *Controller
	key    SessKey
	remote idr.ASN
	// fsm is the session machine the legacy routers run too.
	fsm     *bgp.FSM
	nextHop netip.Addr
	// advertised is what the controller has announced on the session,
	// as sent, so withdrawals and idempotent re-announcements work.
	advertised map[netip.Prefix]wire.PathAttrs
	// adjIn remembers learned prefixes so a reset can withdraw them from
	// the route computation.
	adjIn map[netip.Prefix]bool
	// established is the route computation's view of the session. It is
	// not read off fsm: a reset turns the machine Idle before its
	// synthetic withdrawals run, and a recompute they trigger still sees
	// the session up (announce's FSM guard makes that a no-op).
	established bool
	// border is the border member's index in the current view.
	border int32
}

// Send is the session machine's transport (bgp.SessionConfig.Send): its
// border member puts the link frame on the wire of the session's port
// in a PacketOut. The member is looked up, not kept: RemoveMember and
// RemovePeering take a session's transport down before it leaves the
// controller, and a machine whose transport is down sends nothing.
func (es *extSession) Send(frame []byte) error {
	return es.c.sendPacketOut(es.c.members[es.key.Border], es.key.Port, frame)
}

// sessionOwner is an extSession as its session machine sees it: the
// bgp.Owner methods, kept off extSession's own.
type sessionOwner extSession

func (o *sessionOwner) Established() {
	o.established = true
	o.c.sessGen++
	// Re-advertise current state on the fresh session.
	o.c.markAllDirty()
}
func (o *sessionOwner) Update(m *wire.Update) { (*extSession)(o).handleUpdate(m) }
func (o *sessionOwner) Reset(was bool)        { (*extSession)(o).reset(was) }
func (o *sessionOwner) Trace(bgp.TraceEvent)  {} // nobody traces cluster sessions

// handleUpdate feeds one UPDATE's routes to the route computation. m is
// borrowed from the session machine and valid only until handleUpdate
// returns (see bgp.Owner): learn takes the prefix by value and each
// learned prefix gets its own deep copy of the attributes.
func (es *extSession) handleUpdate(m *wire.Update) {
	for _, p := range m.Withdrawn {
		delete(es.adjIn, p)
		es.c.learn(es.key, p, nil)
	}
	if len(m.NLRI) == 0 {
		return
	}
	// Loop check against the border member's own ASN. Unlike bgp.Router
	// (peer.go), the dropped UPDATE does not implicitly withdraw the
	// neighbour's earlier route for the prefix, so a stale egress
	// candidate stays; TestLoopedUpdateWithdrawsStaleRoute records the
	// divergence, which the fig2 pins depend on.
	if m.Attrs.ASPath.Contains(es.key.Border) {
		return
	}
	for _, p := range m.NLRI {
		es.adjIn[p] = true
		attrs := m.Attrs.Clone()
		es.c.learn(es.key, p, &attrs)
	}
}

// announce advertises prefix with the controller-built attributes,
// setting only NEXT_HOP; the AS path must already carry the
// cluster-internal sequence. Re-announcing identical attributes is a
// no-op that allocates nothing; what is sent is a deep copy, so the
// caller keeps ownership of attrs.
func (es *extSession) announce(prefix netip.Prefix, attrs wire.PathAttrs) error {
	if es.fsm.State() != bgp.StateEstablished {
		return fmt.Errorf("core: session %v->%v not established", es.key.Border, es.remote)
	}
	attrs.NextHop = es.nextHop
	attrs.LocalPref = nil
	if prev, ok := es.advertised[prefix]; ok && prev.Equal(attrs) {
		return nil
	}
	attrs = attrs.Clone()
	if err := es.send(prefix, &attrs); err != nil {
		return err
	}
	es.advertised[prefix] = attrs
	return nil
}

// withdraw retracts a previously announced prefix (a no-op when it was
// never advertised).
func (es *extSession) withdraw(prefix netip.Prefix) error {
	if es.fsm.State() != bgp.StateEstablished {
		return fmt.Errorf("core: session %v->%v not established", es.key.Border, es.remote)
	}
	if _, ok := es.advertised[prefix]; !ok {
		return nil
	}
	if err := es.send(prefix, nil); err != nil {
		return err
	}
	delete(es.advertised, prefix)
	return nil
}

// send sends a one-prefix UPDATE — an announcement with attrs, a
// withdrawal when attrs is nil — from the controller's tx buffer, which
// the session machine only borrows, so nothing but the frame is
// allocated per message.
func (es *extSession) send(prefix netip.Prefix, attrs *wire.PathAttrs) error {
	c := es.c
	c.onePrefix[0] = prefix
	if attrs != nil {
		c.tx = wire.Update{Attrs: *attrs, NLRI: c.onePrefix[:]}
	} else {
		c.tx = wire.Update{Withdrawn: c.onePrefix[:]}
	}
	err := es.fsm.SendUpdate(&c.tx)
	c.tx = wire.Update{}
	return err
}

// reset forgets what was advertised on a torn-down session and withdraws
// everything learned on it from the route computation, in prefix order,
// before the session counts as down.
func (es *extSession) reset(wasEstablished bool) {
	es.c.sessGen++ // advertised empties, and the session may have left Established
	es.advertised = make(map[netip.Prefix]wire.PathAttrs)
	learned := idr.SortedPrefixes(es.adjIn)
	es.adjIn = make(map[netip.Prefix]bool)
	if !wasEstablished {
		return
	}
	for _, p := range learned {
		es.c.learn(es.key, p, nil)
	}
	es.established = false
}
