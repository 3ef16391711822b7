package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/bgp"
	"repro/internal/idr"
)

// The canonical spec deserialization: the exact inverse of
// Sweep.Canonical(), turning the stable wire bytes back into a
// runnable Sweep. This is what makes the canonical encoding a real
// wire format rather than just a hash preimage — a client can ship a
// spec to the lab daemon and the daemon reconstructs the identical
// sweep, with the round-trip enforced below: ParseCanonical rejects
// any bytes that do not re-encode to themselves, so every accepted
// spec is already in canonical form and its hash is the one true
// content address (no two spellings of one spec, no hash aliasing).

// seedPolicyValues is the inverse of seedPolicyNames.
var seedPolicyValues = map[string]SeedPolicy{
	"run":      SeedRun,
	"cell-run": SeedCellRun,
}

// trialFromCanonical reconstructs the base trial from its canonical
// mirror. Every canonical field is fully resolved, so the
// reconstruction round-trips: re-resolving resolved values is the
// identity. The fields that mirror retired knobs are not read: they
// re-encode as their constants, so the round-trip gate in
// ParseCanonical refuses any other value.
func trialFromCanonical(c canonicalTrial) (Trial, error) {
	var t Trial
	var err error
	if t.Topo, err = ParseTopoString(c.Topo); err != nil {
		return Trial{}, err
	}
	if t.Placement, err = ParsePlacementString(c.Placement); err != nil {
		return Trial{}, err
	}
	if t.Policy, err = ParsePolicy(c.Policy); err != nil {
		return Trial{}, err
	}
	switch {
	case len(c.Workload) > 0:
		// An explicit workload takes precedence over Event, and the
		// canonical encoding blanks the ignored Event accordingly.
		for _, ev := range c.Workload {
			kind, err := ParseEventKind(ev.Kind)
			if err != nil {
				return Trial{}, err
			}
			t.Workload = append(t.Workload, WorkloadEvent{
				At:   time.Duration(ev.AtNS),
				Kind: kind,
				AS:   idr.ASN(ev.AS),
				A:    idr.ASN(ev.A),
				B:    idr.ASN(ev.B),
			})
		}
	case c.Event != "":
		if t.Event, err = ParseEvent(c.Event); err != nil {
			return Trial{}, err
		}
	default:
		return Trial{}, fmt.Errorf("lab: canonical trial has neither event nor workload")
	}
	t.Drain = time.Duration(c.DrainNS)
	t.Timers = bgp.Timers{
		HoldTime:   time.Duration(c.HoldTimeNS),
		MRAI:       time.Duration(c.MRAINS),
		MRAIJitter: c.MRAIJitter,
	}
	t.Debounce = time.Duration(c.DebounceNS)
	t.ProcessingDelay = time.Duration(c.ProcessingDelayNS)
	t.LinkDelay = time.Duration(c.LinkDelayNS)
	t.LinkLoss = c.LinkLoss
	if c.Damping != nil {
		t.Damping = &bgp.DampingConfig{HalfLife: time.Duration(c.Damping.HalfLifeNS)}
	}
	t.OriginOnly = c.OriginOnly
	return t, nil
}

// axisFromCanonical reconstructs the swept axis from its canonical
// name and values. Duration axes carry Duration.String() renderings
// (Canonical re-renders them past the "off" label), so every value
// kind parses back exactly.
func axisFromCanonical(c canonicalAxis) (Axis, error) {
	var a Axis
	switch c.Name {
	case "sdn_k", "size":
		if c.Name == "sdn_k" {
			a.Kind = AxisSDNCount
		} else {
			a.Kind = AxisTopoSize
		}
		for _, v := range c.Values {
			n, err := strconv.Atoi(v)
			if err != nil {
				return Axis{}, fmt.Errorf("lab: axis %s: bad value %q", c.Name, v)
			}
			a.Ints = append(a.Ints, n)
		}
	case "mrai_s", "debounce_s":
		if c.Name == "mrai_s" {
			a.Kind = AxisMRAI
		} else {
			a.Kind = AxisDebounce
		}
		for _, v := range c.Values {
			d, err := time.ParseDuration(v)
			if err != nil {
				return Axis{}, fmt.Errorf("lab: axis %s: bad duration %q", c.Name, v)
			}
			a.Durations = append(a.Durations, d)
		}
	case "mode":
		a.Kind = AxisMode
		a.Modes = append(a.Modes, c.Values...)
	case "policy":
		a.Kind = AxisPolicy
		for _, v := range c.Values {
			p, err := ParsePolicy(v)
			if err != nil {
				return Axis{}, err
			}
			a.PolicySpecs = append(a.PolicySpecs, p)
		}
	case "loss":
		a.Kind = AxisLoss
		for _, v := range c.Values {
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Axis{}, fmt.Errorf("lab: axis loss: bad value %q", v)
			}
			a.Floats = append(a.Floats, p)
		}
	default:
		return Axis{}, fmt.Errorf("lab: unknown axis %q", c.Name)
	}
	return a, nil
}

// ParseCanonical parses a canonical spec serialization (the bytes
// Sweep.Canonical produces) back into a runnable Sweep. Only the
// canonical fields are populated — Name and the execution knobs
// (Parallelism, Progress, Cache, ...) are the caller's to set; none
// of them participate in the content address.
//
// The input must already be in canonical form: ParseCanonical
// re-encodes the parsed sweep and rejects the spec unless the bytes
// match exactly. This makes the function safe to use as a network
// admission check — an accepted spec's SHA-256 is its one true
// artifact-store address, so two clients submitting equal specs
// always coalesce onto the same records — and its base trial and axis
// have passed the validation Sweep.Run starts with, so an admitted
// sweep cannot be refused on either later.
func ParseCanonical(data []byte) (Sweep, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c canonicalSweep
	if err := dec.Decode(&c); err != nil {
		return Sweep{}, fmt.Errorf("lab: bad canonical spec: %w", err)
	}
	if c.Version != canonicalVersion {
		return Sweep{}, fmt.Errorf("lab: canonical spec version %d, want %d", c.Version, canonicalVersion)
	}
	pol, ok := seedPolicyValues[c.SeedPolicy]
	if !ok {
		return Sweep{}, fmt.Errorf("lab: unknown seed policy %q", c.SeedPolicy)
	}
	if c.Runs < 1 {
		return Sweep{}, fmt.Errorf("lab: canonical spec runs %d, want >= 1", c.Runs)
	}
	base, err := trialFromCanonical(c.Base)
	if err != nil {
		return Sweep{}, err
	}
	axis, err := axisFromCanonical(c.Axis)
	if err != nil {
		return Sweep{}, err
	}
	if err := base.validate(); err != nil {
		return Sweep{}, err
	}
	if err := axis.validate(base, pol); err != nil {
		return Sweep{}, err
	}
	s := Sweep{
		Base:       base,
		Axis:       axis,
		Runs:       c.Runs,
		BaseSeed:   c.BaseSeed,
		SeedPolicy: pol,
	}
	// Round-trip gate: the spec must be its own canonical form, or
	// its hash would alias another spelling of the same sweep.
	out, err := s.Canonical()
	if err != nil {
		return Sweep{}, err
	}
	if !bytes.Equal(out, data) {
		return Sweep{}, fmt.Errorf("lab: spec is not in canonical form (re-encodes differently)")
	}
	return s, nil
}
