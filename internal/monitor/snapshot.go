package monitor

import (
	"repro/internal/idr"
	"repro/internal/sim"
)

// Snapshot support: the convergence detector's quiescence window state
// and the probe engine's in-flight/accumulated statistics. The event
// log is deliberately NOT snapshotted: every analysis the lab runs
// over it is windowed to start at or after the measurement trigger,
// which is always later than the warm-up fork point, so warm-up
// entries can never influence a result.

// DetectorState is the serializable state of a Detector.
type DetectorState struct {
	// LastNS is the time of the most recent activity, as nanoseconds
	// since sim.Epoch.
	LastNS int64 `json:"last_ns"`
	// Events counts activity touches since the last reset.
	Events uint64 `json:"events"`
}

// State captures the detector's serializable state.
func (d *Detector) State() DetectorState {
	return DetectorState{LastNS: sim.TimeToNS(d.last), Events: d.events}
}

// RestoreState overlays a captured state.
func (d *Detector) RestoreState(st DetectorState) {
	d.last = sim.TimeFromNS(st.LastNS)
	d.events = st.Events
}

// PendingProbe is one in-flight probe: its id and the flow it belongs
// to.
type PendingProbe struct {
	// ID is the probe id; Src and Dst the flow.
	ID  uint64  `json:"id"`
	Src idr.ASN `json:"src"`
	Dst idr.ASN `json:"dst"`
}

// FlowStat is one flow's accumulated statistics.
type FlowStat struct {
	// Src and Dst identify the flow.
	Src idr.ASN `json:"src"`
	Dst idr.ASN `json:"dst"`
	// Sent and Delivered are the counters.
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
}

// ProbeState is the serializable state of a ProbeEngine. Injection
// functions are wiring, re-registered by the experiment on use.
type ProbeState struct {
	// NextID is the last probe id assigned.
	NextID uint64 `json:"next_id"`
	// Pending lists the in-flight probes, sorted by id.
	Pending []PendingProbe `json:"pending,omitempty"`
	// Stats lists the per-flow counters, sorted by (src, dst).
	Stats []FlowStat `json:"stats,omitempty"`
}

// State captures the probe engine's serializable state.
func (e *ProbeEngine) State() ProbeState {
	st := ProbeState{NextID: e.nextID}
	for _, id := range idr.SortedKeys(e.pending) {
		key := e.pending[id]
		st.Pending = append(st.Pending, PendingProbe{ID: id, Src: key.Src, Dst: key.Dst})
	}
	for _, key := range idr.SortedKeysFunc(e.stats, compareFlow) {
		s := e.stats[key]
		st.Stats = append(st.Stats, FlowStat{Src: key.Src, Dst: key.Dst, Sent: s.Sent, Delivered: s.Delivered})
	}
	return st
}

// RestoreState overlays a captured state.
func (e *ProbeEngine) RestoreState(st ProbeState) {
	e.nextID = st.NextID
	e.pending = make(map[uint64]FlowKey, len(st.Pending))
	for _, p := range st.Pending {
		e.pending[p.ID] = FlowKey{Src: p.Src, Dst: p.Dst}
	}
	e.stats = make(map[FlowKey]*ProbeStats, len(st.Stats))
	for _, f := range st.Stats {
		e.stats[FlowKey{Src: f.Src, Dst: f.Dst}] = &ProbeStats{Sent: f.Sent, Delivered: f.Delivered}
	}
}
