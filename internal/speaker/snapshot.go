package speaker

import (
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/idr"
	"repro/internal/sim"
)

// Snapshot support: SessionState captures one controller-driven eBGP
// session — FSM state, negotiated hold time, what the controller has
// announced on it, what was learned from the legacy neighbor, and the
// pending timers as (deadline, original sequence) references.

// SessionState is the serializable state of one Session.
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

// Snapshot captures the session's serializable state.
func (s *Session) Snapshot() SessionState {
	fs := s.fsm.Capture()
	st := SessionState{
		State:       fs.State,
		TransportUp: fs.TransportUp,
		HoldTimeNS:  int64(fs.HoldTime),
		RemoteID:    fs.RemoteID,
		Hold:        fs.Hold,
		Keepalive:   fs.Keepalive,
		Retry:       fs.Retry,
		AdjIn:       idr.SortedPrefixes(s.adjIn),
	}
	for _, p := range s.Advertised() {
		st.Advertised = append(st.Advertised, bgp.PrefixAttrs{Prefix: p, Attrs: s.advertised[p]})
	}
	return st
}

// RestoreState overlays a captured state onto a freshly built session
// with the identical configuration, returning the timer arms for the
// experiment layer to execute in global order.
func (s *Session) RestoreState(st SessionState) []sim.TimerArm {
	for _, ae := range st.Advertised {
		s.advertised[ae.Prefix] = ae.Attrs.Clone()
	}
	for _, p := range st.AdjIn {
		s.adjIn[p] = true
	}
	return s.fsm.Restore(bgp.FSMState{
		State:       st.State,
		TransportUp: st.TransportUp,
		RemoteID:    st.RemoteID,
		HoldTime:    time.Duration(st.HoldTimeNS),
		Hold:        st.Hold,
		Keepalive:   st.Keepalive,
		Retry:       st.Retry,
	})
}
