package lab

import (
	"encoding/json"
	"fmt"
	"time"
)

// The canonical spec serialization: a stable, fully-resolved byte
// encoding of everything that determines a sweep's results. Two sweeps
// with equal Canonical() bytes are guaranteed to produce identical
// results (the engine is deterministic per seed), which is what lets
// the artifact store content-address cached cells by the spec hash.
// Presentation-only fields (Name) and execution-only fields
// (Parallelism, Progress, Cache, WallLimit and the failure-tolerance
// knobs) are deliberately excluded — they cannot change a successful
// result, so they must not change the address.
//
// The encoding is JSON over explicit mirror structs: struct fields
// marshal in declaration order, durations as integer nanoseconds, so
// the bytes are stable across runs, processes and Go versions as long
// as the semantics are unchanged. Renaming or reordering a canonical
// field is a deliberate cache invalidation.

// canonicalEvent mirrors WorkloadEvent for the canonical encoding.
type canonicalEvent struct {
	AtNS int64  `json:"at_ns"`
	Kind string `json:"kind"`
	AS   uint32 `json:"as"`
	A    uint32 `json:"a"`
	B    uint32 `json:"b"`
}

// canonicalDamping mirrors bgp.DampingConfig (nil when damping is
// off), with the default half-life resolved. Only the half-life is
// still a setting: the other fields emit the constants every router
// damps with, so no address moves.
type canonicalDamping struct {
	WithdrawPenalty   float64 `json:"withdraw_penalty"`
	UpdatePenalty     float64 `json:"update_penalty"`
	SuppressThreshold float64 `json:"suppress_threshold"`
	ReuseThreshold    float64 `json:"reuse_threshold"`
	HalfLifeNS        int64   `json:"half_life_ns"`
	MaxSuppressNS     int64   `json:"max_suppress_ns"`
}

// canonicalTrial is the fully-resolved trial template: every Trial
// field that reaches the engine, with the documented defaults applied
// so that spelling a default out loud addresses the same content.
type canonicalTrial struct {
	Topo              string           `json:"topo"`
	Placement         string           `json:"placement"`
	Policy            string           `json:"policy"`
	Event             string           `json:"event"`
	Workload          []canonicalEvent `json:"workload,omitempty"`
	DrainNS           int64            `json:"drain_ns"`
	HoldTimeNS        int64            `json:"hold_time_ns"`
	KeepaliveFraction int              `json:"keepalive_fraction"`
	ConnectRetryNS    int64            `json:"connect_retry_ns"`
	MRAINS            int64            `json:"mrai_ns"`
	// KeepaliveFraction, ConnectRetryNS, WithdrawalsImmediate,
	// SettleNS, LinkJitterNS, FlapCycles, FlapPeriodNS, TimeoutNS and
	// EstablishTimeoutNS mirror knobs that are gone (each had one value
	// in use; explicit withdrawals always ride the MRAI batch; the
	// quiescence window follows the MRAI, monitor.Window, which 0 in
	// SettleNS asked for; link jitter delayed only a send nothing
	// called). They stay to emit the constants the engine runs with,
	// so no address moves; changing one of those constants is a
	// canonicalVersion bump. TimeoutNS is the floor of the convergence
	// window, which the topology and the MRAI (both in the address) set
	// above it (convergeWindow); a wider window changes only which runs
	// finish, never what one reports.
	WithdrawalsImmediate bool              `json:"withdrawals_immediate"`
	MRAIJitter           bool              `json:"mrai_jitter"`
	DebounceNS           int64             `json:"debounce_ns"`
	SettleNS             int64             `json:"settle_ns"`
	ProcessingDelayNS    int64             `json:"processing_delay_ns"`
	LinkDelayNS          int64             `json:"link_delay_ns"`
	LinkJitterNS         int64             `json:"link_jitter_ns"`
	LinkLoss             float64           `json:"link_loss"`
	Damping              *canonicalDamping `json:"damping,omitempty"`
	FlapCycles           int               `json:"flap_cycles"`
	FlapPeriodNS         int64             `json:"flap_period_ns"`
	OriginOnly           bool              `json:"origin_only"`
	TimeoutNS            int64             `json:"timeout_ns"`
	EstablishTimeoutNS   int64             `json:"establish_timeout_ns"`
}

// canonicalAxis is the swept axis with its values rendered through the
// axis's own labels (which round-trip every value kind).
type canonicalAxis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// canonicalSweep is the full content address: the resolved base trial,
// the axis, and the seed derivation. Trial.Seed and Trial.TopoSeed are
// not part of the base — the sweep derives them per (cell, run) from
// BaseSeed and SeedPolicy, so those two fields cover them.
type canonicalSweep struct {
	Version    int            `json:"version"`
	Base       canonicalTrial `json:"base"`
	Axis       canonicalAxis  `json:"axis"`
	Runs       int            `json:"runs"`
	BaseSeed   int64          `json:"base_seed"`
	SeedPolicy string         `json:"seed_policy"`
}

// canonicalVersion bumps when the engine's semantics change in a way
// the spec fields cannot express (every cached result is then stale).
// Version 2: the link knobs (delay, jitter, loss) joined the canonical
// trial and reliable transport gained the seeded loss model.
const canonicalVersion = 2

// canonical resolves the trial to its canonical mirror.
func (t Trial) canonical() canonicalTrial {
	t = t.withDefaults()
	// Resolve the per-field timer defaults through the same path the
	// router uses, so a partially-specified Timers and its spelled-out
	// equivalent share an address. (MRAIJitter passes through as set —
	// it participates below because jitter changes every convergence
	// draw.)
	t.Timers = t.Timers.Resolved()
	// An explicit Workload takes precedence over the Event sugar, so
	// the ignored Event must not participate in the address.
	event := t.Event.String()
	if len(t.Workload) > 0 {
		event = ""
	}
	c := canonicalTrial{
		Topo:               t.Topo.String(),
		Placement:          t.Placement.String(),
		Policy:             t.Policy.String(),
		Event:              event,
		DrainNS:            int64(t.Drain),
		HoldTimeNS:         int64(t.Timers.HoldTime),
		KeepaliveFraction:  3,
		ConnectRetryNS:     int64(5 * time.Second),
		MRAINS:             int64(t.Timers.MRAI),
		MRAIJitter:         t.Timers.MRAIJitter,
		DebounceNS:         int64(t.Debounce),
		ProcessingDelayNS:  int64(t.ProcessingDelay),
		LinkDelayNS:        int64(t.LinkDelay),
		LinkLoss:           t.LinkLoss,
		FlapCycles:         flapCycles,
		FlapPeriodNS:       int64(flapPeriod),
		OriginOnly:         t.OriginOnly,
		TimeoutNS:          int64(convergeFloor),
		EstablishTimeoutNS: int64(establishTimeout),
	}
	for _, ev := range t.Workload {
		c.Workload = append(c.Workload, canonicalEvent{
			AtNS: int64(ev.At),
			Kind: ev.Kind.String(),
			AS:   uint32(ev.AS),
			A:    uint32(ev.A),
			B:    uint32(ev.B),
		})
	}
	if t.Damping != nil {
		// Resolve the half-life default through the same path the
		// router uses, so DampingConfig{} and the spelled-out default
		// share an address.
		c.Damping = &canonicalDamping{
			WithdrawPenalty:   1000,
			UpdatePenalty:     500,
			SuppressThreshold: 2000,
			ReuseThreshold:    750,
			HalfLifeNS:        int64(t.Damping.Resolved().HalfLife),
			MaxSuppressNS:     int64(time.Hour),
		}
	}
	return c
}

// seedPolicyNames maps SeedPolicy values to their canonical names.
var seedPolicyNames = map[SeedPolicy]string{
	SeedRun:     "run",
	SeedCellRun: "cell-run",
}

// Canonical returns the sweep's canonical spec serialization: a
// stable, fully-resolved JSON encoding of every field that determines
// the sweep's results (topology, placement, policy, workload, timers,
// axis, runs, seed derivation — with documented defaults applied), and
// nothing else. Equal bytes mean equal results; the artifact store
// hashes these bytes into the content address its records are filed
// under. Presentation and execution knobs (Name, Parallelism,
// Progress, Cache) do not participate.
func (s Sweep) Canonical() ([]byte, error) {
	runs := s.Runs
	if runs <= 0 {
		runs = 1
	}
	pol, ok := seedPolicyNames[s.SeedPolicy]
	if !ok {
		return nil, fmt.Errorf("lab: unknown seed policy %d", int(s.SeedPolicy))
	}
	axis := canonicalAxis{Name: s.Axis.Name()}
	for i := 0; i < s.Axis.Len(); i++ {
		axis.Values = append(axis.Values, s.Axis.Label(i))
	}
	// Duration axes label "-1ns" as "off"; disambiguate by value so
	// distinct debounce settings never share an address.
	switch s.Axis.Kind {
	case AxisMRAI, AxisDebounce:
		for i, d := range s.Axis.Durations {
			axis.Values[i] = d.String()
		}
	}
	return json.Marshal(canonicalSweep{
		Version:    canonicalVersion,
		Base:       s.Base.canonical(),
		Axis:       axis,
		Runs:       runs,
		BaseSeed:   s.BaseSeed,
		SeedPolicy: pol,
	})
}
