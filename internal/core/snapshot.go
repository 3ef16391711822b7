package core

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sim"
)

// Snapshot support: ControllerState captures the controller's mutable
// state — the external route candidates, cluster originations, dirty
// set and debounce timer, port operational flags, the external
// sessions, and the counters. The switch graph itself (members,
// ports, peering wiring) is configuration, rebuilt identically by
// construction; only what changed since Start is serialized.

// ExtRoute is one candidate external route: the session it was learned
// on and its attributes.
type ExtRoute struct {
	// Border and Port identify the session (SessKey).
	Border idr.ASN `json:"border"`
	Port   uint32  `json:"port"`
	// Attrs are the learned path attributes.
	Attrs wire.PathAttrs `json:"attrs"`
}

// ExtRouteEntry lists one prefix's candidate external routes, sorted
// by session key.
type ExtRouteEntry struct {
	// Prefix is the destination.
	Prefix netip.Prefix `json:"prefix"`
	// Routes are the candidates by session.
	Routes []ExtRoute `json:"routes"`
}

// OwnedEntry is one cluster-originated prefix and its owner member.
type OwnedEntry struct {
	// Prefix is the origination; Owner the member AS announcing it.
	Prefix netip.Prefix `json:"prefix"`
	Owner  idr.ASN      `json:"owner"`
}

// PortFlag is one member port's operational state.
type PortFlag struct {
	// Member and Port identify the port; Up is its operational state.
	Member idr.ASN `json:"member"`
	Port   uint32  `json:"port"`
	Up     bool    `json:"up"`
}

// SessionSnap is one external peering's state: the route computation's
// established flag plus the session itself.
type SessionSnap struct {
	// Border and Port identify the peering (SessKey).
	Border idr.ASN `json:"border"`
	Port   uint32  `json:"port"`
	// Established is the controller's view of the session.
	Established bool `json:"established"`
	// Speaker is the session state.
	Speaker SessionState `json:"speaker"`
}

// SessionState is the serializable state of one external session: FSM
// state, negotiated hold time, what the controller has announced on it,
// what was learned from the legacy neighbor, and the pending timers as
// (deadline, original sequence) references.
type SessionState struct {
	// State is the FSM state.
	State bgp.State `json:"state"`
	// TransportUp mirrors the transport signal.
	TransportUp bool `json:"transport_up"`
	// HoldTimeNS is the negotiated hold time in nanoseconds.
	HoldTimeNS int64 `json:"hold_time_ns"`
	// RemoteID was learned from the neighbor's OPEN.
	RemoteID idr.RouterID `json:"remote_id"`
	// Advertised lists the controller's announcements as sent (NEXT_HOP
	// set, LOCAL_PREF stripped), sorted by prefix.
	Advertised []bgp.PrefixAttrs `json:"advertised,omitempty"`
	// AdjIn lists the prefixes learned on the session, sorted.
	AdjIn []netip.Prefix `json:"adj_in,omitempty"`
	// Hold, Keepalive and Retry reference the pending timers.
	Hold      *sim.TimerRef `json:"hold,omitempty"`
	Keepalive *sim.TimerRef `json:"keepalive,omitempty"`
	Retry     *sim.TimerRef `json:"retry,omitempty"`
}

// ControllerState is the serializable state of a Controller.
type ControllerState struct {
	// ExtRoutes lists the candidate external routes, sorted by prefix.
	ExtRoutes []ExtRouteEntry `json:"ext_routes,omitempty"`
	// Owned lists the cluster originations, sorted by prefix.
	Owned []OwnedEntry `json:"owned,omitempty"`
	// Dirty lists prefixes awaiting recomputation, sorted; AllDirty
	// marks a pending full recomputation.
	Dirty    []netip.Prefix `json:"dirty,omitempty"`
	AllDirty bool           `json:"all_dirty,omitempty"`
	// Debounce references the pending recomputation timer.
	Debounce *sim.TimerRef `json:"debounce,omitempty"`
	// Started mirrors whether Start ran.
	Started bool `json:"started"`
	// Xid is the last OpenFlow transaction id assigned.
	Xid uint32 `json:"xid"`
	// Stats are the activity counters, verbatim.
	Stats Stats `json:"stats"`
	// Ports holds every registered port's operational flag, sorted by
	// (member, port).
	Ports []PortFlag `json:"ports,omitempty"`
	// Sessions holds the external peerings, sorted by key.
	Sessions []SessionSnap `json:"sessions,omitempty"`
}

// State captures the controller's serializable state.
func (c *Controller) State() ControllerState {
	st := ControllerState{
		AllDirty: c.allDirty,
		Debounce: sim.RefOf(c.debounceTimer),
		Started:  c.started,
		Xid:      c.xid,
		Stats:    c.stats,
	}
	for _, p := range idr.SortedPrefixes(c.extRoutes) {
		e := ExtRouteEntry{Prefix: p}
		for _, r := range c.extRoutes[p] {
			e.Routes = append(e.Routes, ExtRoute{Border: r.sess.key.Border, Port: r.sess.key.Port, Attrs: r.attrs})
		}
		st.ExtRoutes = append(st.ExtRoutes, e)
	}
	for _, p := range idr.SortedPrefixes(c.owned) {
		st.Owned = append(st.Owned, OwnedEntry{Prefix: p, Owner: c.owned[p]})
	}
	st.Dirty = idr.SortedPrefixes(c.dirty)
	for _, asn := range c.Members() {
		m := c.members[asn]
		for _, port := range idr.SortedKeys(m.ports) {
			st.Ports = append(st.Ports, PortFlag{Member: asn, Port: port, Up: m.ports[port].up})
		}
	}
	for _, key := range c.sessionKeys() {
		es := c.sessions[key]
		st.Sessions = append(st.Sessions, SessionSnap{
			Border:      key.Border,
			Port:        key.Port,
			Established: es.established,
			Speaker:     es.snapshot(),
		})
	}
	return st
}

// snapshot captures one session's serializable state.
func (es *extSession) snapshot() SessionState {
	fs := es.fsm.Capture()
	st := SessionState{
		State:       fs.State,
		TransportUp: fs.TransportUp,
		HoldTimeNS:  int64(fs.HoldTime),
		RemoteID:    fs.RemoteID,
		Hold:        fs.Hold,
		Keepalive:   fs.Keepalive,
		Retry:       fs.Retry,
		AdjIn:       idr.SortedPrefixes(es.adjIn),
	}
	for _, p := range idr.SortedPrefixes(es.advertised) {
		st.Advertised = append(st.Advertised, bgp.PrefixAttrs{Prefix: p, Attrs: es.advertised[p]})
	}
	return st
}

// RestoreState overlays a captured state onto a freshly built
// controller with the identical cluster wiring (same members, ports
// and peerings). Start must NOT have run and must not run afterwards:
// the captured Started flag is adopted directly, so no greeting or
// transport-up frames are generated. The returned timer arms must be
// executed by the caller in global order. The border records are not
// state: the restored controller starts without any.
func (c *Controller) RestoreState(st ControllerState) ([]sim.TimerArm, error) {
	for _, e := range st.ExtRoutes {
		c.extRoutes[e.Prefix] = make([]extRoute, 0, len(e.Routes))
		for _, r := range e.Routes {
			key := SessKey{Border: r.Border, Port: r.Port}
			if c.sessions[key] == nil {
				return nil, fmt.Errorf("core: restore: route for %v on no peering %v", e.Prefix, key)
			}
			attrs := r.Attrs.Clone()
			c.setRoute(e.Prefix, key, &attrs)
		}
	}
	for _, o := range st.Owned {
		c.owned[o.Prefix] = o.Owner
	}
	for _, p := range st.Dirty {
		c.dirty[p] = true
	}
	c.allDirty = st.AllDirty
	c.started = st.Started
	c.xid = st.Xid
	c.stats = st.Stats
	for _, pf := range st.Ports {
		m, ok := c.members[pf.Member]
		if !ok {
			return nil, fmt.Errorf("core: restore: unknown member %v", pf.Member)
		}
		pi, ok := m.ports[pf.Port]
		if !ok {
			return nil, fmt.Errorf("core: restore: member %v has no port %d", pf.Member, pf.Port)
		}
		pi.up = pf.Up
	}
	c.invalidate()
	var arms []sim.TimerArm
	for _, ss := range st.Sessions {
		es, ok := c.sessions[SessKey{Border: ss.Border, Port: ss.Port}]
		if !ok {
			return nil, fmt.Errorf("core: restore: no peering %v#%d", ss.Border, ss.Port)
		}
		es.established = ss.Established
		arms = append(arms, es.restore(ss.Speaker)...)
	}
	return st.Debounce.Rearm(arms, c.cfg.Clock, &c.debounceTimer, sim.FireFunc(c.recompute)), nil
}

// restore overlays a captured state onto a freshly built session,
// returning its timer arms.
func (es *extSession) restore(st SessionState) []sim.TimerArm {
	for _, ae := range st.Advertised {
		es.advertised[ae.Prefix] = ae.Attrs.Clone()
	}
	for _, p := range st.AdjIn {
		es.adjIn[p] = true
	}
	return es.fsm.Restore(bgp.FSMState{
		State:       st.State,
		TransportUp: st.TransportUp,
		RemoteID:    st.RemoteID,
		HoldTime:    time.Duration(st.HoldTimeNS),
		Hold:        st.Hold,
		Keepalive:   st.Keepalive,
		Retry:       st.Retry,
	})
}
