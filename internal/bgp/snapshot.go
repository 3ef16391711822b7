package bgp

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sim"
)

// Snapshot support: RouterState is the complete serializable state of
// one converged speaker — every RIB, every session FSM, the damping
// histories and the activity counters. RIB contents are restored by
// REPLAYING them through the table's own mutation methods (Originate/
// SetAdjIn) and the sessions' export records, so the decision process
// rebuilds the Loc-RIB and the by-length index rather than trusting
// serialized derived state;
// timers are restored as (deadline, original sequence) references that
// the experiment layer re-arms in globally sorted order.

// RouteState serializes one rib.Route.
type RouteState struct {
	// Prefix, Attrs, Peer, PeerASN, PeerID and Local mirror rib.Route.
	Prefix  netip.Prefix   `json:"prefix"`
	Attrs   wire.PathAttrs `json:"attrs"`
	Peer    rib.PeerKey    `json:"peer,omitempty"`
	PeerASN idr.ASN        `json:"peer_asn,omitempty"`
	PeerID  idr.RouterID   `json:"peer_id,omitempty"`
	Local   bool           `json:"local,omitempty"`
}

// routeState serializes a RIB route.
func routeState(r *rib.Route) RouteState {
	return RouteState{
		Prefix:  r.Prefix,
		Attrs:   r.Attrs,
		Peer:    r.Peer,
		PeerASN: r.PeerASN,
		PeerID:  r.PeerID,
		Local:   r.Local,
	}
}

// route rebuilds the RIB route.
func (s RouteState) route() *rib.Route {
	return &rib.Route{
		Prefix:  s.Prefix,
		Attrs:   s.Attrs,
		Peer:    s.Peer,
		PeerASN: s.PeerASN,
		PeerID:  s.PeerID,
		Local:   s.Local,
	}
}

// PrefixAttrs pairs a prefix with an attribute set (originations,
// pending announcements).
type PrefixAttrs struct {
	// Prefix is the route's prefix.
	Prefix netip.Prefix `json:"prefix"`
	// Attrs is the attribute set.
	Attrs wire.PathAttrs `json:"attrs"`
}

// AdjOutEntry is one advertised (peer, prefix, attrs) record.
type AdjOutEntry struct {
	// Peer is the session the advertisement went to.
	Peer rib.PeerKey `json:"peer"`
	// Prefix and Attrs are the advertised route.
	Prefix netip.Prefix   `json:"prefix"`
	Attrs  wire.PathAttrs `json:"attrs"`
}

// PeerSnap is the serializable state of one session.
type PeerSnap struct {
	// Key identifies the session on its router.
	Key rib.PeerKey `json:"key"`
	// State is the FSM state.
	State State `json:"state"`
	// TransportUp mirrors the transport signal.
	TransportUp bool `json:"transport_up"`
	// RemoteID and RemoteASN were learned from the neighbor's OPEN.
	RemoteID  idr.RouterID `json:"remote_id"`
	RemoteASN idr.ASN      `json:"remote_asn"`
	// HoldTimeNS is the negotiated hold time in nanoseconds.
	HoldTimeNS int64 `json:"hold_time_ns"`
	// NextAdvNS is when the next announcement flush may happen
	// (sim.TimeNone when unset).
	NextAdvNS int64 `json:"next_adv_ns"`
	// PendingAnnounce and PendingWithdraw are the queued outbound
	// route changes, sorted by prefix.
	PendingAnnounce []PrefixAttrs  `json:"pending_announce,omitempty"`
	PendingWithdraw []netip.Prefix `json:"pending_withdraw,omitempty"`
	// Hold, Keepalive, Retry and Mrai reference the pending timers.
	Hold      *sim.TimerRef `json:"hold,omitempty"`
	Keepalive *sim.TimerRef `json:"keepalive,omitempty"`
	Retry     *sim.TimerRef `json:"retry,omitempty"`
	Mrai      *sim.TimerRef `json:"mrai,omitempty"`
	// Quiet is the liveness of a session quiet with its mate, which
	// has no hold or keepalive timer (see Mating).
	Quiet *QuietState `json:"quiet,omitempty"`
}

// DampEntry is one (session, prefix) flap history.
type DampEntry struct {
	// Peer and Prefix key the history.
	Peer   rib.PeerKey  `json:"peer"`
	Prefix netip.Prefix `json:"prefix"`
	// Penalty is the accumulated figure of merit at UpdatedNS.
	Penalty float64 `json:"penalty"`
	// UpdatedNS is when the penalty was last touched.
	UpdatedNS int64 `json:"updated_ns"`
	// Suppressed reports an active suppression.
	Suppressed bool `json:"suppressed"`
	// Latest is the held-back route a reuse would reinstate.
	Latest *RouteState `json:"latest,omitempty"`
	// Reuse references the pending reuse timer.
	Reuse *sim.TimerRef `json:"reuse,omitempty"`
}

// RouterState is the complete serializable state of one Router.
type RouterState struct {
	// Originated lists the locally-announced prefixes, sorted.
	Originated []PrefixAttrs `json:"originated,omitempty"`
	// AdjIn lists every Adj-RIB-In route, sorted by (peer, prefix).
	// The Loc-RIB is not serialized: the decision process rebuilds it
	// deterministically during replay.
	AdjIn []RouteState `json:"adj_in,omitempty"`
	// AdjOut lists every advertised route, sorted by (peer, prefix).
	AdjOut []AdjOutEntry `json:"adj_out,omitempty"`
	// Stats are the activity counters as Stats reads them: with every
	// KEEPALIVE a quiet session has sent so far.
	Stats Stats `json:"stats"`
	// BusyUntilNS is the processing-delay work-queue horizon
	// (sim.TimeNone when idle since the epoch).
	BusyUntilNS int64 `json:"busy_until_ns"`
	// Peers holds one entry per session, sorted by key.
	Peers []PeerSnap `json:"peers,omitempty"`
	// Damping holds the flap histories, sorted by (peer, prefix)
	// (only when damping is configured).
	Damping []DampEntry `json:"damping,omitempty"`
}

// State captures the router's serializable state.
func (r *Router) State() RouterState {
	st := RouterState{
		Stats:       r.Stats(),
		BusyUntilNS: sim.TimeToNS(r.busyUntil),
	}
	for _, rt := range r.table.LocalRoutes() {
		st.Originated = append(st.Originated, PrefixAttrs{Prefix: rt.Prefix, Attrs: rt.Attrs})
	}
	for _, rt := range r.table.AdjInRoutes() {
		st.AdjIn = append(st.AdjIn, routeState(rt))
	}
	for _, p := range r.Sessions() {
		adverts := p.sortedAdverts()
		for _, a := range adverts {
			if a.out {
				st.AdjOut = append(st.AdjOut, AdjOutEntry{Peer: p.cfg.Key, Prefix: a.prefix, Attrs: a.sent})
			}
		}
		st.Peers = append(st.Peers, p.snap(adverts))
	}
	if r.damping != nil {
		st.Damping = r.damping.snap()
	}
	return st
}

// RestoreState overlays a captured state onto a freshly built router
// with the identical configuration (same peers added in the same
// order). RIB contents replay through the table's mutation methods —
// no advertisements are scheduled because the replay runs before the
// session states are overlaid. The returned timer arms must be
// executed by the caller (globally sorted across all components)
// before the kernel adopts its captured counters.
func (r *Router) RestoreState(st RouterState) ([]sim.TimerArm, error) {
	for _, oa := range st.Originated {
		r.table.Originate(oa.Prefix, oa.Attrs)
	}
	for _, rs := range st.AdjIn {
		r.table.SetAdjIn(rs.route())
	}
	for _, ae := range st.AdjOut {
		p, ok := r.peers[ae.Peer]
		if !ok {
			return nil, fmt.Errorf("bgp: restore: router %v advertised to no peer %q", r.cfg.ASN, ae.Peer)
		}
		a := p.advertFor(ae.Prefix)
		a.out, a.sent = true, ae.Attrs
	}
	r.stats = st.Stats
	r.busyUntil = sim.TimeFromNS(st.BusyUntilNS)
	// What the queue held is lost, as every frame in flight is; what it
	// still owes its new arrivals is the one mark.
	r.marks, r.markHead = []busyMark{{at: sim.TimeToNS(r.cfg.Clock.Now()), until: st.BusyUntilNS}}, 0
	var arms []sim.TimerArm
	for _, ps := range st.Peers {
		p, ok := r.peers[ps.Key]
		if !ok {
			return nil, fmt.Errorf("bgp: restore: router %v has no peer %q", r.cfg.ASN, ps.Key)
		}
		a, ok := p.restore(ps)
		if !ok {
			return nil, fmt.Errorf("bgp: restore: router %v: session %q is quiet but not an Established mated session", r.cfg.ASN, ps.Key)
		}
		arms = append(arms, a...)
	}
	r.established = 0
	for _, p := range r.peerList {
		if p.fsm.state == StateEstablished {
			r.established++
		}
	}
	if len(st.Damping) > 0 {
		if r.damping == nil {
			return nil, fmt.Errorf("bgp: restore: router %v has damping state but damping is not configured", r.cfg.ASN)
		}
		arms = append(arms, r.damping.restore(st.Damping)...)
	}
	return arms, nil
}

// snap captures the session's serializable state, its export records
// given in address order.
func (p *Peer) snap(adverts []*advert) PeerSnap {
	fs := p.fsm.Capture()
	ps := PeerSnap{
		Key:         p.cfg.Key,
		State:       fs.State,
		TransportUp: fs.TransportUp,
		RemoteID:    fs.RemoteID,
		HoldTimeNS:  int64(fs.HoldTime),
		NextAdvNS:   p.nextAdv,
		Hold:        fs.Hold,
		Keepalive:   fs.Keepalive,
		Retry:       fs.Retry,
		Mrai:        sim.RefOf(p.mraiTimer),
		Quiet:       p.fsm.captureQuiet(),
	}
	// An OPEN is accepted only from the configured neighbor AS, so the
	// learned ASN is that one from OpenConfirm on and unset before.
	if fs.State == StateOpenConfirm || fs.State == StateEstablished {
		ps.RemoteASN = p.cfg.RemoteASN
	}
	for _, a := range adverts {
		switch a.change {
		case queueAnnounce:
			ps.PendingAnnounce = append(ps.PendingAnnounce, PrefixAttrs{Prefix: a.prefix, Attrs: a.attrs})
		case queueWithdraw:
			ps.PendingWithdraw = append(ps.PendingWithdraw, a.prefix)
		}
	}
	return ps
}

// sortedAdverts returns the session's export records in address order.
func (p *Peer) sortedAdverts() []*advert {
	return slices.SortedFunc(maps.Values(p.adverts), func(a, b *advert) int { return idr.ComparePrefix(a.prefix, b.prefix) })
}

// restore overlays a captured session state, returning the timer arms
// for the experiment layer to execute in global order. It reports false
// for a quiet state the session cannot take.
func (p *Peer) restore(ps PeerSnap) ([]sim.TimerArm, bool) {
	arms := p.fsm.Restore(FSMState{
		State:       ps.State,
		TransportUp: ps.TransportUp,
		RemoteID:    ps.RemoteID,
		HoldTime:    time.Duration(ps.HoldTimeNS),
		Hold:        ps.Hold,
		Keepalive:   ps.Keepalive,
		Retry:       ps.Retry,
	})
	p.nextAdv = ps.NextAdvNS
	if ps.Quiet != nil {
		quiet, ok := p.fsm.restoreQuiet(ps.Quiet)
		if !ok {
			return nil, false
		}
		arms = append(arms, quiet...)
	}
	for _, pa := range ps.PendingAnnounce {
		p.queue(p.advertFor(pa.Prefix), queueAnnounce, pa.Attrs)
	}
	for _, prefix := range ps.PendingWithdraw {
		p.queue(p.advertFor(prefix), queueWithdraw, wire.PathAttrs{})
	}
	return ps.Mrai.Rearm(arms, p.clock(), &p.mraiTimer, (*mraiFirer)(p)), true
}

// snap captures the damping engine's flap histories, sorted by
// (peer, prefix).
func (d *damping) snap() []DampEntry {
	peers := slices.DeleteFunc(idr.SortedKeys(d.state), func(k rib.PeerKey) bool { return len(d.state[k]) == 0 })
	var out []DampEntry
	for _, peer := range peers {
		m := d.state[peer]
		for _, prefix := range idr.SortedPrefixes(m) {
			s := m[prefix]
			e := DampEntry{
				Peer:       peer,
				Prefix:     prefix,
				Penalty:    s.penalty,
				UpdatedNS:  sim.TimeToNS(s.updatedAt),
				Suppressed: s.suppressed,
				Reuse:      sim.RefOf(s.reuseTimer),
			}
			if s.latest != nil {
				rs := routeState(s.latest)
				e.Latest = &rs
			}
			out = append(out, e)
		}
	}
	return out
}

// restore overlays captured flap histories, returning the reuse-timer
// arms.
func (d *damping) restore(entries []DampEntry) []sim.TimerArm {
	var arms []sim.TimerArm
	for _, e := range entries {
		s := d.get(e.Peer, e.Prefix)
		s.penalty = e.Penalty
		s.updatedAt = sim.TimeFromNS(e.UpdatedNS)
		s.suppressed = e.Suppressed
		if e.Latest != nil {
			s.latest = e.Latest.route()
		}
		arms = e.Reuse.Rearm(arms, d.router.cfg.Clock, &s.reuseTimer, sim.FireFunc(func() { d.reuse(e.Peer, e.Prefix, s) }))
	}
	return arms
}
