package experiment

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/collector"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sdn"
	"repro/internal/topology"
)

// peerKeyTo is the conventional session key a router uses for its
// session toward a neighbor AS.
func peerKeyTo(remote idr.ASN) rib.PeerKey {
	return rib.PeerKey(fmt.Sprintf("to-%s", remote))
}

// buildLinks wires every topology edge: router-router peerings,
// router-switch external peerings, and switch-switch cluster links.
func (e *Experiment) buildLinks() error {
	for _, edge := range e.cfg.Graph.Edges() {
		if err := e.buildLink(edge); err != nil {
			return err
		}
	}
	return nil
}

func (e *Experiment) buildLink(edge topology.Edge) error {
	a, b := edge.A, edge.B
	nodeA, _ := e.Net.Node(a.String())
	nodeB, _ := e.Net.Node(b.String())
	delay := edge.Delay
	if delay == 0 {
		delay = e.cfg.LinkDelay
	}
	link, err := e.Net.Connect(nodeA, nodeB, netem.LinkConfig{Delay: delay, Loss: e.cfg.LinkLoss})
	if err != nil {
		return err
	}
	key := linkKey(a, b)
	e.links[key] = link
	if _, err := e.Plan.AddLink(a, b); err != nil {
		return err
	}
	epA, epB := link.Endpoints()
	e.endpointOf[[2]idr.ASN{a, b}] = epA
	e.endpointOf[[2]idr.ASN{b, a}] = epB
	// One state-change subscription per link, dispatched through the
	// mutable onLinkState table so migration can swap the protocol
	// hook without leaking subscriptions to torn-down devices.
	link.OnStateChange(func(up bool) {
		if h := e.onLinkState[key]; h != nil {
			h(up)
		}
	})
	return e.wire(a, b)
}

// linkEnd is the protocol object one AS holds on its end of the link
// toward neighbor nb: a switch port (sw, port) for a cluster member, a
// BGP session (peer) for a legacy router. fresh marks an end open just
// created, as opposed to one standing from before a migration.
type linkEnd struct {
	asn, nb idr.ASN
	peer    *bgp.Peer
	sw      *sdn.Switch
	port    uint32
	fresh   bool
}

// notify tells the end its link went up or down.
func (l linkEnd) notify(up bool) {
	switch {
	case l.sw != nil:
		_ = l.sw.NotifyPortState(l.port, up)
	case up:
		l.peer.TransportUp()
	default:
		l.peer.TransportDown()
	}
}

// linkAddr returns asn's address on the transfer network of its link
// toward nb.
func (e *Experiment) linkAddr(asn, nb idr.ASN) (netip.Addr, error) {
	ln, ok := e.Plan.Link(asn, nb)
	if !ok {
		return netip.Addr{}, fmt.Errorf("experiment: no transfer network for %v-%v", asn, nb)
	}
	addr, _ := ln.Addr(asn)
	return addr, nil
}

// open finds asn's end of the link toward nb in asn's current role,
// creating the switch port or router session if asn has none yet.
func (e *Experiment) open(asn, nb idr.ASN) (linkEnd, error) {
	end := linkEnd{asn: asn, nb: nb}
	ep := e.endpointOf[[2]idr.ASN{asn, nb}]
	if sw, ok := e.Switches[asn]; ok {
		end.sw = sw
		if end.port, ok = e.portOf[ep]; ok {
			return end, nil
		}
		port, err := sw.AddPort(ep.Send)
		if err != nil {
			return end, err
		}
		e.portOf[ep] = port
		end.port, end.fresh = port, true
		return end, nil
	}
	if p, ok := e.peerOf[ep]; ok {
		end.peer = p
		return end, nil
	}
	addr, err := e.linkAddr(asn, nb)
	if err != nil {
		return end, err
	}
	end.peer, err = e.addRouterPeer(asn, nb, ep, addr)
	end.fresh = true
	return end, err
}

// settle aligns an end with the current role of its neighbor. A fresh
// switch port is registered with the controller, which terminates the
// eBGP session toward a legacy neighbor itself. A
// standing switch port turns from external peering into intra-cluster
// edge or back, following a neighbor that just migrated. A standing
// router session is reset, so it re-establishes with whatever now
// answers on the far end; a fresh one has nothing to undo.
func (e *Experiment) settle(end linkEnd) error {
	if end.sw == nil {
		if !end.fresh {
			end.peer.TransportDown()
		}
		return nil
	}
	nbMember := e.members[end.nb]
	var err error
	switch {
	case end.fresh:
		err = e.Ctrl.RegisterPort(end.asn, end.port, end.nb, nbMember)
	case nbMember:
		if err = e.Ctrl.RemovePeering(end.asn, end.port); err == nil {
			err = e.Ctrl.SetPortMembership(end.asn, end.port, true)
		}
	default:
		err = e.Ctrl.SetPortMembership(end.asn, end.port, false)
	}
	if err != nil || nbMember {
		return err
	}
	id, err := e.Plan.RouterID(end.asn)
	if err != nil {
		return err
	}
	addr, err := e.linkAddr(end.asn, end.nb)
	if err != nil {
		return err
	}
	return e.Ctrl.AddExternalPeering(end.asn, end.port, end.nb, id, addr)
}

// wire puts the right protocol object on each end of the a–b link for
// the two ASes' current roles and installs the link's state hook. It
// is the only place that decides this, at build time (both ends fresh)
// and for every link of a migrating AS (its end fresh, the neighbor's
// standing). The order of the calls below is part of the determinism
// contract: TransportDown, SetPortMembership (arms the debounce) and
// AddExternalPeering (brings the session up after Start) each
// consume kernel sequence numbers.
func (e *Experiment) wire(a, b idr.ASN) error {
	ea, err := e.open(a, b)
	if err != nil {
		return err
	}
	eb, err := e.open(b, a)
	if err != nil {
		return err
	}
	ends := [2]linkEnd{ea, eb}
	if ea.fresh && !eb.fresh {
		ends = [2]linkEnd{eb, ea} // the standing end lets go before the fresh one takes over
	}
	for _, end := range ends {
		if err := e.settle(end); err != nil {
			return err
		}
	}
	key := linkKey(a, b)
	if e.started && e.links[key].Up() {
		for _, end := range [2]linkEnd{ea, eb} {
			if end.peer != nil {
				end.peer.TransportUp()
			}
		}
	}
	// A port-status change reaches the controller before the router
	// on the far end reacts; two ends of a kind keep the caller's order.
	if ea.sw == nil && eb.sw != nil {
		ea, eb = eb, ea
	}
	hook := [2]linkEnd{ea, eb}
	e.onLinkState[key] = func(up bool) {
		hook[0].notify(up)
		hook[1].notify(up)
	}
	return nil
}

// neighborOf builds the policy neighbor descriptor for remote as seen
// from local, using the neighbor-kind table precomputed at build time
// (pairs without a topology edge — e.g. the collector — resolve to
// KindNone).
func (e *Experiment) neighborOf(local, remote idr.ASN) policy.Neighbor {
	return policy.Neighbor{Key: peerKeyTo(remote), ASN: remote, Kind: e.kinds[[2]idr.ASN{local, remote}]}
}

func (e *Experiment) addRouterPeer(local, remote idr.ASN, ep *netem.Endpoint, addr netip.Addr) (*bgp.Peer, error) {
	r := e.Routers[local]
	key := peerKeyTo(remote)
	p, err := r.AddPeer(bgp.PeerConfig{
		Key:       key,
		RemoteASN: remote,
		Neighbor:  e.neighborOf(local, remote),
		NextHop:   addr,
		Send:      ep.Send, // a session's frames are link frames already
	})
	if err != nil {
		return nil, err
	}
	e.peerOf[ep] = p
	e.peerEndpoint[local][key] = ep
	return p, nil
}

// buildCollector attaches the route collector to every legacy router.
func (e *Experiment) buildCollector() error {
	coll, err := collector.New(collector.Config{
		Clock:  e.K,
		Rand:   e.K.Rand(),
		Timers: e.cfg.Timers,
	})
	if err != nil {
		return err
	}
	e.Coll = coll
	collNode, err := e.Net.AddNode(CollectorNodeName)
	if err != nil {
		return err
	}
	collNode.OnMessage(func(from *netem.Endpoint, data []byte) {
		kind, payload, err := frames.Decode(data)
		if err != nil || kind != frames.KindBGP {
			return
		}
		if p, ok := e.peerOf[from]; ok {
			p.Deliver(payload)
		}
	})
	for _, asn := range e.cfg.Graph.Nodes() {
		if e.members[asn] {
			continue // cluster members do not run BGP themselves
		}
		node, _ := e.Net.Node(asn.String())
		link, err := e.Net.Connect(node, collNode, netem.LinkConfig{Delay: controlDelay})
		if err != nil {
			return err
		}
		epR, epC := link.Endpoints()
		// Router side: a normal peering toward the collector AS.
		pr, err := e.addRouterPeer(asn, coll.ASN(), epR, netip.AddrFrom4([4]byte{172, 31, 0, byte(asn)}))
		if err != nil {
			return err
		}
		// Collector side.
		pc, err := coll.Router().AddPeer(bgp.PeerConfig{
			Key:       collector.PeerKeyFor(asn),
			RemoteASN: asn,
			NextHop:   netip.AddrFrom4([4]byte{172, 31, 255, 1}),
			Send:      epC.Send,
		})
		if err != nil {
			return err
		}
		e.peerOf[epC] = pc
		link.OnStateChange(func(up bool) {
			if up {
				pr.TransportUp()
				pc.TransportUp()
			} else {
				pr.TransportDown()
				pc.TransportDown()
			}
		})
	}
	return nil
}

// Start brings every transport up and starts the controller. It does
// not advance the clock; call WaitEstablished or RunFor next.
func (e *Experiment) Start() error {
	if e.started {
		return fmt.Errorf("experiment: already started")
	}
	e.started = true
	if e.Ctrl != nil {
		if err := e.Ctrl.Start(); err != nil {
			return err
		}
	}
	startRouter := func(r *bgp.Router) {
		for _, k := range sortedPeerKeys(r) {
			e.K.Go(r.Peers()[k].TransportUp)
		}
	}
	for _, asn := range e.ASNs() {
		if r, ok := e.Routers[asn]; ok {
			startRouter(r)
		}
	}
	if e.Coll != nil {
		startRouter(e.Coll.Router())
	}
	// Cluster speaker sessions come up via the controller's Start.
	return nil
}

// expectedSessions counts the sessions that should establish.
func (e *Experiment) expectedSessions() (routerSessions int) {
	//lint:maporder integer sums of per-router session counts commute; Peers only reads
	for _, r := range e.Routers {
		routerSessions += len(r.Peers())
	}
	if e.Coll != nil {
		routerSessions += len(e.Coll.Router().Peers())
	}
	return routerSessions
}

// WaitEstablished runs the clock until every BGP session (router side)
// is Established, or errors after timeout.
func (e *Experiment) WaitEstablished(timeout time.Duration) error {
	deadline := e.K.Now().Add(timeout)
	for {
		established := 0
		//lint:maporder integer sums of per-router session counts commute; EstablishedCount only reads
		for _, r := range e.Routers {
			established += r.EstablishedCount()
		}
		if e.Coll != nil {
			established += e.Coll.Router().EstablishedCount()
		}
		if established == e.expectedSessions() {
			return nil
		}
		if !e.K.Now().Before(deadline) {
			return fmt.Errorf("experiment: %d/%d sessions established after %v: %w",
				established, e.expectedSessions(), timeout, monitor.ErrTimeout)
		}
		if err := e.K.RunFor(100 * time.Millisecond); err != nil {
			return err
		}
	}
}
