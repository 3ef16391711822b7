package experiment

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/addressing"
	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sdn"
	"repro/internal/topology"
)

// peerKeyTo is the conventional session key a router uses for its
// session toward a neighbor AS: "to-" and the AS's String.
func peerKeyTo(remote idr.ASN) rib.PeerKey {
	var buf [16]byte
	return rib.PeerKey(strconv.AppendUint(append(buf[:0], "to-AS"...), uint64(remote), 10))
}

// peerKey is peerKeyTo made once per remote AS: every session toward
// it shares the one string.
func (e *Experiment) peerKey(remote idr.ASN) rib.PeerKey {
	key, ok := e.peerKeys[remote]
	if !ok {
		key = peerKeyTo(remote)
		e.peerKeys[remote] = key
	}
	return key
}

// link is one topology edge: its netem link, its /30 transfer network,
// and each AS's end of it. ends[0] belongs to the lower-numbered AS.
type link struct {
	*netem.Link
	net  addressing.LinkNet
	ends [2]end
	// first indexes the end StateChanged tells first: the order wire
	// last saw the ends in, except that a switch end goes before a
	// router end.
	first uint8
	// mating is the liveness of the two router sessions on a lossless
	// link, which keep it by arithmetic while both are Established
	// (bgp.Mating); it is unmated while either end is a switch.
	mating bgp.Mating
}

// modelledKeepalives, set by tests only, leaves every session unmated,
// so each sends and hears its OPEN and KEEPALIVEs as frames: the
// reference the arithmetic is held to.
var modelledKeepalives bool

// Delay is the link's one-way delay (bgp.Wire).
func (l *link) Delay() time.Duration { return l.Config().Delay }

// SendAt puts a frame that end side's session sent at sent on the link
// (bgp.Wire).
func (l *link) SendAt(side int, frame []byte, sent time.Time) {
	_ = l.ends[side].ep.SendAt(frame, sent) // a mated link is lossless and the instant in flight
}

// Credit counts frames from end side that landed by arithmetic
// (bgp.Wire).
func (l *link) Credit(side int, frames, bytes uint64) { l.ends[side].ep.Credit(frames, bytes) }

// mate pairs the link's two router sessions if the link is lossless,
// and unpairs whatever else stands on it.
func (l *link) mate() {
	a, b := l.ends[0].peer, l.ends[1].peer
	if a == nil || b == nil || l.Config().Loss != 0 || modelledKeepalives {
		l.mating.Unmate()
		return
	}
	bgp.Mate(&l.mating, a, b, l)
}

// end is one AS's side of a link: the endpoint it sends on, the
// neighbor's relationship as seen from the AS, and the protocol object
// of the AS's current role — a BGP session (peer) for a legacy router,
// a switch port (sw, port) for a cluster member. Migration clears the
// object of the role the AS leaves; wire fills in the one it takes.
type end struct {
	ep   *netem.Endpoint
	peer *bgp.Peer
	sw   *sdn.Switch
	port uint32
	kind topology.NeighborKind
}

// endAt returns the link end that ep, a topology link's endpoint,
// belongs to; nil for an endpoint of any other link.
func endAt(ep *netem.Endpoint) *end {
	l, ok := ep.Link().Tag().(*link)
	if !ok {
		return nil
	}
	if en := &l.ends[0]; en.ep == ep {
		return en
	}
	return &l.ends[1]
}

// side is the index of asn's end on its link toward nb.
func side(asn, nb idr.ASN) uint8 {
	if asn < nb {
		return 0
	}
	return 1
}

// end returns asn's end of the link toward nb.
func (l *link) end(asn, nb idr.ASN) *end { return &l.ends[side(asn, nb)] }

// StateChanged is the link's state hook (netem.Watcher): it tells both
// ends the link went up or down, in the order wire recorded.
func (l *link) StateChanged(up bool) {
	l.ends[l.first].notify(up)
	l.ends[1-l.first].notify(up)
}

func (en *end) notify(up bool) {
	switch {
	case en.sw != nil:
		_ = en.sw.NotifyPortState(en.port, up)
	case up:
		en.peer.TransportUp()
	default:
		en.peer.TransportDown()
	}
}

// buildLinks wires every topology edge: router-router peerings,
// router-switch external peerings, and switch-switch cluster links.
// An edge's index in Edges is its link number in the address plan.
func (e *Experiment) buildLinks() error {
	for i, edge := range e.cfg.Graph.Edges() {
		if err := e.buildLink(i, edge); err != nil {
			return err
		}
	}
	return nil
}

func (e *Experiment) buildLink(i int, edge topology.Edge) error {
	a, b := edge.A, edge.B
	delay := edge.Delay
	if delay == 0 {
		delay = e.cfg.LinkDelay
	}
	nl, err := e.Net.Connect(e.nodes[a], e.nodes[b], netem.LinkConfig{Delay: delay, Loss: e.cfg.LinkLoss})
	if err != nil {
		return err
	}
	net, err := e.Plan.TransferNet(i, a, b)
	if err != nil {
		return err
	}
	l := &link{Link: nl, net: net}
	epA, epB := nl.Endpoints()
	kindA, _ := e.cfg.Graph.RelationshipOf(a, b)
	kindB, _ := e.cfg.Graph.RelationshipOf(b, a)
	endA, endB := l.end(a, b), l.end(b, a)
	*endA = end{ep: epA, kind: kindA}
	*endB = end{ep: epB, kind: kindB}
	nl.SetTag(l)
	e.links[linkKey(a, b)] = l
	nl.OnStateChange(l)
	return e.wire(a, b)
}

// open gives asn's end of l the protocol object of asn's current role,
// creating the switch port or router session toward nb if the end has
// none yet. fresh reports a creation, as opposed to an object standing
// from before a migration.
func (e *Experiment) open(l *link, asn, nb idr.ASN) (fresh bool, err error) {
	en := l.end(asn, nb)
	if sw, ok := e.Switches[asn]; ok {
		if en.port != 0 {
			return false, nil
		}
		port, err := sw.AddPort(en.ep)
		if err != nil {
			return false, err
		}
		en.sw, en.port = sw, port
		return true, nil
	}
	if en.peer != nil {
		return false, nil
	}
	addr, _ := l.net.Addr(asn)
	key := e.peerKey(nb)
	en.peer, err = e.Routers[asn].AddPeer(bgp.PeerConfig{
		Key:       key,
		RemoteASN: nb,
		Neighbor:  policy.Neighbor{Key: key, ASN: nb, Kind: en.kind},
		NextHop:   addr,
		Send:      en.ep, // a session's frames are link frames already
	})
	return true, err
}

// settle aligns asn's end of l with the current role of its neighbor
// nb. A fresh switch port is registered with the controller, which
// terminates the eBGP session toward a legacy neighbor itself. A
// standing switch port turns from external peering into intra-cluster
// edge or back, following a neighbor that just migrated. A standing
// router session is reset, so it re-establishes with whatever now
// answers on the far end; a fresh one has nothing to undo.
func (e *Experiment) settle(l *link, asn, nb idr.ASN, fresh bool) error {
	en := l.end(asn, nb)
	if en.sw == nil {
		if !fresh {
			en.peer.TransportDown()
		}
		return nil
	}
	nbMember := e.IsSDNMember(nb)
	var err error
	switch {
	case fresh:
		err = e.Ctrl.RegisterPort(asn, en.port, nb, nbMember)
	case nbMember:
		if err = e.Ctrl.RemovePeering(asn, en.port); err == nil {
			err = e.Ctrl.SetPortMembership(asn, en.port, true)
		}
	default:
		err = e.Ctrl.SetPortMembership(asn, en.port, false)
	}
	if err != nil || nbMember {
		return err
	}
	id, err := e.Plan.RouterID(asn)
	if err != nil {
		return err
	}
	addr, _ := l.net.Addr(asn)
	return e.Ctrl.AddExternalPeering(asn, en.port, nb, id, addr)
}

// wire puts the right protocol object on each end of the a–b link for
// the two ASes' current roles and records the order its state hook
// tells them in. It is the only place that decides this, at build time
// (both ends fresh) and for every link of a migrating AS (its end
// fresh, the neighbor's standing). The order of the calls below is
// part of the determinism contract: TransportDown, SetPortMembership
// (arms the debounce) and AddExternalPeering (brings the session up
// after Start) each consume kernel sequence numbers.
func (e *Experiment) wire(a, b idr.ASN) error {
	l := e.links[linkKey(a, b)]
	freshA, err := e.open(l, a, b)
	if err != nil {
		return err
	}
	freshB, err := e.open(l, b, a)
	if err != nil {
		return err
	}
	x, y, freshX, freshY := a, b, freshA, freshB
	if freshA && !freshB { // the standing end lets go before the fresh one takes over
		x, y, freshX, freshY = b, a, freshB, freshA
	}
	if err := e.settle(l, x, y, freshX); err != nil {
		return err
	}
	if err := e.settle(l, y, x, freshY); err != nil {
		return err
	}
	l.mate()
	ea, eb := l.end(a, b), l.end(b, a)
	if e.started && l.Up() {
		for _, en := range [2]*end{ea, eb} {
			if en.peer != nil {
				en.peer.TransportUp()
			}
		}
	}
	// A port-status change reaches the controller before the router
	// on the far end reacts; two ends of a kind keep the caller's order.
	l.first = side(a, b)
	if ea.sw == nil && eb.sw != nil {
		l.first = side(b, a)
	}
	return nil
}

// Start brings every transport up and starts the controller. It does
// not advance the clock; call WaitEstablished or RunFor next. The two
// sessions of a lossless router-router link come up by arithmetic when
// nothing has run or is pending on the clock yet (bgp.Opening): a
// member's origination arms the controller's debounce or sends its
// FlowMods, and a link's state change is posted, so either leaves the
// handshakes emulated. Every other session opens as emulated.
func (e *Experiment) Start() error { return e.do(Command{Kind: "start"}) }

func (e *Experiment) start() error {
	if e.started {
		return fmt.Errorf("experiment: already started")
	}
	e.started = true
	fresh := e.K.Pending() == 0 && e.K.Events() == 0
	if e.Ctrl != nil {
		if err := e.Ctrl.Start(); err != nil {
			return err
		}
	}
	routers := make([]*bgp.Router, 0, len(e.Routers))
	for _, asn := range e.ASNs() {
		if r, ok := e.Routers[asn]; ok {
			routers = append(routers, r)
		}
	}
	// Cluster speaker sessions came up in the controller's Start.
	e.opening = bgp.Open(routers, fresh)
	return nil
}

// expectedSessions counts the sessions that should establish.
func (e *Experiment) expectedSessions() (routerSessions int) {
	//lint:maporder integer sums of per-router session counts commute; Peers only reads
	for _, r := range e.Routers {
		routerSessions += len(r.Peers())
	}
	return routerSessions
}

// WaitEstablished runs the clock until every BGP session (router side)
// is Established, or errors after timeout.
func (e *Experiment) WaitEstablished(timeout time.Duration) error {
	deadline := e.K.Now().Add(timeout)
	for {
		// Each router counts its Established sessions as they change,
		// so a poll reads one counter per router.
		established := 0
		//lint:maporder integer sums of per-router session counts commute; EstablishedCount only reads
		for _, r := range e.Routers {
			established += r.EstablishedCount()
		}
		expected := e.expectedSessions()
		if established == expected {
			return nil
		}
		if !e.K.Now().Before(deadline) {
			return fmt.Errorf("experiment: %d/%d sessions established after %v: %w",
				established, expected, timeout, monitor.ErrTimeout)
		}
		if err := e.K.RunFor(100 * time.Millisecond); err != nil {
			return err
		}
	}
}
