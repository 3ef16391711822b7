// Converged-state checkpointing: Snapshot captures a started
// experiment's complete mutable state — kernel clock/counters/RNG
// position, link substrate, every BGP router, the controller with its
// speaker sessions, every switch, and the monitors — as one deep,
// self-contained, versioned value. Restore rebuilds the network from
// the same Config (all wiring is reconstructed by construction, never
// serialized) and overlays the captured state, re-arming pending
// timers in globally sorted (deadline, original sequence) order so a
// restored run replays byte-identically to the original.
//
// Seed-dependent randomness is never serialized as generator state:
// every stream is re-derived from the restoring Config's seed and
// fast-forwarded to the captured draw position. Restoring with the
// snapshot's own seed continues the original run exactly; restoring
// with a different seed FORKS it — the run diverges exactly where
// randomness enters (MRAI jitter, loss draws) and nowhere else.
package experiment

import (
	"encoding/json"
	"fmt"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/netem"
	"repro/internal/sdn"
	"repro/internal/sim"
)

// SnapshotVersion is the current snapshot codec version. Decode
// rejects every other value. Version 2 writes an AS path as one array
// of ASNs, where version 1 wrote a list of typed segments.
const SnapshotVersion = 2

// RouterEntry pairs a legacy AS with its router state.
type RouterEntry struct {
	// ASN identifies the router.
	ASN idr.ASN `json:"asn"`
	// State is the router's captured state.
	State bgp.RouterState `json:"state"`
}

// SwitchEntry pairs a cluster member with its switch state.
type SwitchEntry struct {
	// ASN identifies the switch.
	ASN idr.ASN `json:"asn"`
	// State is the switch's captured state.
	State sdn.SwitchState `json:"state"`
}

// Snapshot is the complete serializable state of a started experiment.
type Snapshot struct {
	// Version is the codec version (SnapshotVersion).
	Version int `json:"version"`
	// Kernel is the execution state: clock, counters, RNG position.
	Kernel sim.KernelState `json:"kernel"`
	// Net is the link substrate state.
	Net netem.NetworkState `json:"net"`
	// Routers holds the legacy routers, sorted by ASN.
	Routers []RouterEntry `json:"routers,omitempty"`
	// Controller is the IDR controller state (nil in pure BGP).
	Controller *core.ControllerState `json:"controller,omitempty"`
	// Switches holds the cluster members' switches, sorted by ASN.
	Switches []SwitchEntry `json:"switches,omitempty"`
	// Detector is the convergence detector's state. The event log is
	// not captured: all lab analyses over it are windowed to start at
	// the measurement trigger, after any snapshot point.
	Detector monitor.DetectorState `json:"detector"`
	// Probes is the data-plane prober's state.
	Probes monitor.ProbeState `json:"probes"`
	// RetiredSent is the sent-UPDATE total of routers torn down by
	// migration (kept so UpdateTotals stays monotonic).
	RetiredSent uint64 `json:"retired_sent,omitempty"`
	// RetiredRecv is the received-UPDATE counterpart of RetiredSent.
	RetiredRecv uint64 `json:"retired_recv,omitempty"`
}

// Snapshot captures the experiment's complete mutable state. It
// requires a started experiment whose wiring still matches its build
// configuration: an experiment reshaped by migration, a controller
// crash or a partition cannot be rebuilt from its Config, so it
// refuses to snapshot.
func (e *Experiment) Snapshot() (*Snapshot, error) {
	if !e.started {
		return nil, fmt.Errorf("experiment: snapshot of an unstarted experiment")
	}
	if e.crashedMembers != nil || e.partitionCut != nil {
		return nil, fmt.Errorf("experiment: snapshot during an active fault (controller crash or partition)")
	}
	if len(e.Switches) != len(e.cfg.SDNMembers) {
		return nil, fmt.Errorf("experiment: snapshot after migration changed the cluster")
	}
	for _, m := range e.cfg.SDNMembers {
		if !e.IsSDNMember(m) {
			return nil, fmt.Errorf("experiment: snapshot after migration changed the cluster")
		}
	}
	// The network's counters take every KEEPALIVE landed so far, so
	// the state below is whole without the quiet sessions' arithmetic.
	//lint:maporder Settle credits counters, and sums commute
	for _, l := range e.links {
		l.mating.Settle()
	}
	snap := &Snapshot{
		Version:     SnapshotVersion,
		Kernel:      e.K.State(),
		Net:         e.Net.State(),
		Detector:    e.Detector.State(),
		Probes:      e.Probes.State(),
		RetiredSent: e.retiredSent,
		RetiredRecv: e.retiredRecv,
	}
	for _, asn := range e.ASNs() {
		if r, ok := e.Routers[asn]; ok {
			snap.Routers = append(snap.Routers, RouterEntry{ASN: asn, State: r.State()})
		}
		if sw, ok := e.Switches[asn]; ok {
			snap.Switches = append(snap.Switches, SwitchEntry{ASN: asn, State: sw.State()})
		}
	}
	if e.Ctrl != nil {
		st := e.Ctrl.State()
		snap.Controller = &st
	}
	return snap, nil
}

// Restore builds a runnable experiment that continues snap: the
// network is rebuilt from cfg (which must describe the same topology,
// membership and policy the snapshot was taken under), the captured
// state is overlaid, and every pending timer is re-armed in globally
// sorted (deadline, original sequence) order. The restored experiment
// is already started — do not call Start.
//
// cfg.Seed chooses the continuation's random streams: the snapshot's
// own seed replays the original run byte-identically; a different
// seed forks it, diverging exactly where randomness enters.
func Restore(cfg Config, snap *Snapshot) (*Experiment, error) {
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("experiment: unsupported snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// The clock must be restored before any timer re-arms: AfterFunc
	// deadlines are computed against the restored now.
	e.K.BeginRestore(snap.Kernel, cfg.Seed)
	if err := e.Net.RestoreState(snap.Net); err != nil {
		return nil, err
	}
	if len(snap.Routers) != len(e.Routers) {
		return nil, fmt.Errorf("experiment: restore: %d router states for %d routers", len(snap.Routers), len(e.Routers))
	}
	var arms []sim.TimerArm
	for _, re := range snap.Routers {
		r, ok := e.Routers[re.ASN]
		if !ok {
			return nil, fmt.Errorf("experiment: restore: no router %v", re.ASN)
		}
		a, err := r.RestoreState(re.State)
		if err != nil {
			return nil, err
		}
		arms = append(arms, a...)
	}
	if (snap.Controller != nil) != (e.Ctrl != nil) {
		return nil, fmt.Errorf("experiment: restore: controller presence mismatch")
	}
	if snap.Controller != nil {
		a, err := e.Ctrl.RestoreState(*snap.Controller)
		if err != nil {
			return nil, err
		}
		arms = append(arms, a...)
	}
	if len(snap.Switches) != len(e.Switches) {
		return nil, fmt.Errorf("experiment: restore: %d switch states for %d switches", len(snap.Switches), len(e.Switches))
	}
	for _, se := range snap.Switches {
		sw, ok := e.Switches[se.ASN]
		if !ok {
			return nil, fmt.Errorf("experiment: restore: no switch %v", se.ASN)
		}
		sw.RestoreState(se.State)
	}
	e.Detector.RestoreState(snap.Detector)
	e.Probes.RestoreState(snap.Probes)
	e.retiredSent, e.retiredRecv = snap.RetiredSent, snap.RetiredRecv
	sim.ArmAll(arms)
	e.K.FinishRestore(snap.Kernel)
	e.started = true
	return e, nil
}

// EncodeSnapshot serializes a snapshot with the versioned JSON codec.
// The encoding is deterministic: every collection inside a Snapshot
// is sorted at capture time.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSnapshot parses a versioned snapshot in one pass. Malformed or
// truncated input yields an error, never a panic; any version other
// than SnapshotVersion is rejected once the document is decoded.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("experiment: snapshot decode: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("experiment: unsupported snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	return &s, nil
}
