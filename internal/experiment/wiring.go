package experiment

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/addressing"
	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/collector"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/netem"
	"repro/internal/policy"
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
	link, err := e.Net.Connect(nodeA, nodeB, netem.LinkConfig{
		Delay:  delay,
		Jitter: e.cfg.LinkJitter,
		Loss:   e.cfg.LinkLoss,
	})
	if err != nil {
		return err
	}
	key := linkKey(a, b)
	e.links[key] = link
	ln, err := e.Plan.AddLink(a, b)
	if err != nil {
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

	memberA, memberB := e.members[a], e.members[b]
	switch {
	case !memberA && !memberB:
		return e.wireRouterRouter(edge, epA, epB, ln)
	case memberA && memberB:
		return e.wireSwitchSwitch(edge, epA, epB)
	case memberA && !memberB:
		return e.wireSwitchRouter(a, b, epA, epB, ln)
	default:
		return e.wireSwitchRouter(b, a, epB, epA, ln)
	}
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
		Send: func(b []byte) error {
			return ep.Send(frames.Encode(frames.KindBGP, b))
		},
	})
	if err != nil {
		return nil, err
	}
	e.keyOf[ep] = key
	e.peerEndpoint[local][key] = ep
	return p, nil
}

func (e *Experiment) wireRouterRouter(edge topology.Edge, epA, epB *netem.Endpoint, ln addressing.LinkNet) error {
	a, b := edge.A, edge.B
	addrA, _ := ln.Addr(a)
	addrB, _ := ln.Addr(b)
	pa, err := e.addRouterPeer(a, b, epA, addrA)
	if err != nil {
		return err
	}
	pb, err := e.addRouterPeer(b, a, epB, addrB)
	if err != nil {
		return err
	}
	e.onLinkState[linkKey(a, b)] = func(up bool) {
		if up {
			pa.TransportUp()
			pb.TransportUp()
		} else {
			pa.TransportDown()
			pb.TransportDown()
		}
	}
	return nil
}

func (e *Experiment) wireSwitchSwitch(edge topology.Edge, epA, epB *netem.Endpoint) error {
	a, b := edge.A, edge.B
	swA, swB := e.Switches[a], e.Switches[b]
	portA, err := swA.AddPort(epA.Send)
	if err != nil {
		return err
	}
	portB, err := swB.AddPort(epB.Send)
	if err != nil {
		return err
	}
	e.portOf[epA] = portA
	e.portOf[epB] = portB
	if err := e.Ctrl.RegisterPort(a, portA, b, true); err != nil {
		return err
	}
	if err := e.Ctrl.RegisterPort(b, portB, a, true); err != nil {
		return err
	}
	e.onLinkState[linkKey(a, b)] = func(up bool) {
		_ = swA.NotifyPortState(portA, up)
		_ = swB.NotifyPortState(portB, up)
	}
	return nil
}

// wireSwitchRouter wires an external peering: member m's switch port
// faces legacy router l, and the controller terminates the eBGP
// session through the speaker.
func (e *Experiment) wireSwitchRouter(m, l idr.ASN, epM, epL *netem.Endpoint, ln addressing.LinkNet) error {
	sw := e.Switches[m]
	port, err := sw.AddPort(epM.Send)
	if err != nil {
		return err
	}
	e.portOf[epM] = port
	if err := e.Ctrl.RegisterPort(m, port, l, false); err != nil {
		return err
	}
	id, err := e.Plan.RouterID(m)
	if err != nil {
		return err
	}
	addrM, _ := ln.Addr(m)
	addrL, _ := ln.Addr(l)
	if err := e.Ctrl.AddExternalPeering(m, port, l, id, addrM); err != nil {
		return err
	}
	pl, err := e.addRouterPeer(l, m, epL, addrL)
	if err != nil {
		return err
	}
	e.onLinkState[linkKey(m, l)] = func(up bool) {
		_ = sw.NotifyPortState(port, up)
		if up {
			pl.TransportUp()
		} else {
			pl.TransportDown()
		}
	}
	return nil
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
	collKeys := make(map[*netem.Endpoint]rib.PeerKey)
	collNode.OnMessage(func(from *netem.Endpoint, data []byte) {
		kind, payload, err := frames.Decode(data)
		if err != nil || kind != frames.KindBGP {
			return
		}
		coll.Router().Deliver(collKeys[from], payload)
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
		key := collector.PeerKeyFor(asn)
		pc, err := coll.Router().AddPeer(bgp.PeerConfig{
			Key:       key,
			RemoteASN: asn,
			NextHop:   netip.AddrFrom4([4]byte{172, 31, 255, 1}),
			Send: func(b []byte) error {
				return epC.Send(frames.Encode(frames.KindBGP, b))
			},
		})
		if err != nil {
			return err
		}
		collKeys[epC] = key
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
		keys := make([]rib.PeerKey, 0, len(r.Peers()))
		for k := range r.Peers() {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			p := r.Peers()[k]
			e.K.Go(p.TransportUp)
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
