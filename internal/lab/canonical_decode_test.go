package lab

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/idr"
)

// decodeSweeps is the round-trip corpus: one sweep per axis kind plus
// the trickier trial shapes (explicit workload, damping, negative
// debounce, Erdős–Rényi float parameter).
func decodeSweeps() map[string]Sweep {
	return map[string]Sweep{
		"sdn-count": {
			Base: Trial{
				Topo:            TopoSpec{Kind: "clique", N: 6},
				Event:           Withdrawal,
				Debounce:        100 * time.Millisecond,
				ProcessingDelay: 25 * time.Millisecond,
			},
			Axis:       SDNCounts(0, 3, 6),
			Runs:       3,
			BaseSeed:   21,
			SeedPolicy: SeedCellRun,
		},
		"mrai": {
			Base: Trial{Topo: TopoSpec{Kind: "ring", N: 8}, Event: Announcement},
			Axis: MRAIs(time.Second, 5*time.Second, 30*time.Second),
			Runs: 2,
		},
		"size": {
			Base: Trial{Topo: TopoSpec{Kind: "er", N: 16, P: 0.25}, Event: Failover, OriginOnly: true},
			Axis: TopoSizes(8, 16, 32),
		},
		"debounce-off": {
			Base: Trial{Topo: TopoSpec{Kind: "star", N: 5}, Event: Withdrawal},
			// The negative "disabled" debounce labels as "off" but must
			// serialize as a value ("-1ns") to keep distinct settings at
			// distinct addresses — the decode must parse it back.
			Axis: Debounces(-time.Nanosecond, time.Second),
		},
		"flap-modes": {
			Base: Trial{
				Topo:    TopoSpec{Kind: "grid", N: 3, M: 3},
				Event:   Flap,
				Damping: &bgp.DampingConfig{HalfLife: 2 * time.Minute},
				Drain:   10 * time.Minute,
			},
			Axis: Modes(ModeBGP, ModeDamping, ModeSDN),
		},
		"flap-period": {
			// A storm of another shape is spelled out as its schedule.
			Base: Trial{Topo: TopoSpec{Kind: "clique", N: 4}, Workload: FlapWorkload(3, 20*time.Second), Drain: flapDrain},
			Axis: MRAIs(5*time.Second, 20*time.Second),
		},
		"policy": {
			Base: Trial{Topo: TopoSpec{Kind: "tree", N: 7, M: 2}, Event: Hijack},
			Axis: Policies(PolicySpec{}, PolicySpec{Kind: "gao-rexford"}, PolicySpec{Kind: "prefix-filter"}),
		},
		"loss": {
			Base: Trial{
				Topo:      TopoSpec{Kind: "line", N: 5},
				Event:     Withdrawal,
				LinkDelay: 2 * time.Millisecond,
			},
			Axis: Losses(0, 0.05, 0.2),
		},
		"workload": {
			Base: Trial{
				Topo: TopoSpec{Kind: "clique", N: 5},
				// Event is sugar-masked by the explicit schedule; the
				// canonical form must survive the round trip regardless.
				Event: Announcement,
				Workload: Workload{
					{At: 0, Kind: KindWithdrawal},
					{At: 30 * time.Second, Kind: KindAnnouncement, AS: 2},
					{At: time.Minute, Kind: KindLinkDown, A: 1, B: 3},
				},
				Placement: Placement{Strategy: PlaceExplicit, ASNs: []idr.ASN{2, 3}},
			},
			// Not sdn-count: that axis drives Placement.K, which an
			// explicit member list ignores, so Run and ParseCanonical
			// both refuse the pair.
			Axis: MRAIs(5 * time.Second),
		},
	}
}

// TestParseCanonicalRoundTrip pins that ParseCanonical is the exact
// inverse of Canonical for every axis kind and trial shape: decode
// then re-encode reproduces the input bytes, so a spec shipped over
// the daemon wire reconstructs the identical content address.
func TestParseCanonicalRoundTrip(t *testing.T) {
	for name, sw := range decodeSweeps() {
		t.Run(name, func(t *testing.T) {
			data, err := sw.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParseCanonical(data)
			if err != nil {
				t.Fatalf("ParseCanonical: %v", err)
			}
			back, err := got.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("round trip changed the canonical bytes:\nin:  %s\nout: %s", data, back)
			}
		})
	}
}

// TestParseCanonicalGridMatches pins that a decoded sweep runs the
// same grid: same cell labels, same per-(cell,run) seeds — the
// properties the artifact store's (spec, cell, run) addressing relies
// on.
func TestParseCanonicalGridMatches(t *testing.T) {
	sw := decodeSweeps()["sdn-count"]
	data, err := sw.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseCanonical(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Axis.Len() != sw.Axis.Len() || got.Runs != sw.Runs {
		t.Fatalf("grid shape changed: got %dx%d, want %dx%d", got.Axis.Len(), got.Runs, sw.Axis.Len(), sw.Runs)
	}
	for ci := 0; ci < sw.Axis.Len(); ci++ {
		if got.Axis.Label(ci) != sw.Axis.Label(ci) {
			t.Errorf("cell %d label: got %q, want %q", ci, got.Axis.Label(ci), sw.Axis.Label(ci))
		}
		for run := 0; run < sw.Runs; run++ {
			if got.seed(ci, run) != sw.seed(ci, run) {
				t.Errorf("seed(%d,%d): got %d, want %d", ci, run, got.seed(ci, run), sw.seed(ci, run))
			}
		}
	}
}

// TestParseCanonicalRejects pins the admission checks: version skew,
// non-canonical spellings, unknown fields and junk all fail loudly
// instead of aliasing a different spec.
func TestParseCanonicalRejects(t *testing.T) {
	sw := decodeSweeps()["mrai"]
	data, err := sw.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	modes, err := decodeSweeps()["flap-modes"].Canonical()
	if err != nil {
		t.Fatal(err)
	}
	counts, err := decodeSweeps()["sdn-count"].Canonical()
	if err != nil {
		t.Fatal(err)
	}
	debounces, err := decodeSweeps()["debounce-off"].Canonical()
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := decodeSweeps()["size"].Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		// Sweep.Run refuses this axis (a clique 6 has no 7th AS to
		// place); admitting it would queue a job that cannot start.
		"axis that cannot run": strings.Replace(string(counts), `"values":["0","3","6"]`, `"values":["0","3","7"]`, 1),

		// int64(NaN) is implementation-defined: this spec would seed
		// its runs differently on amd64 and arm64 under one address.
		"cell-run seeds on a mode axis": strings.Replace(string(modes), `"seed_policy":"run"`, `"seed_policy":"cell-run"`, 1),

		// An MRAI of 0 is the unset value: the cell would run the 30s
		// default under a label claiming 0s.
		"zero mrai on the axis":     strings.Replace(string(data), `"values":["1s"`, `"values":["0s"`, 1),
		"negative mrai on the axis": strings.Replace(string(data), `"values":["1s"`, `"values":["-5s"`, 1),
		// Likewise a debounce of 0 would run the 1s controller default
		// under a "0s" label; disabled is a negative value.
		"zero debounce on the axis": strings.Replace(string(debounces), `"values":["-1ns"`, `"values":["0s"`, 1),
		// A size the generator refuses, in the base topology or as one
		// value of a size axis, would fail every run of its cells.
		"ring below its minimum": strings.Replace(string(data), `"topo":"ring 8"`, `"topo":"ring 2"`, 1),
		"size axis below the minimum": strings.Replace(strings.Replace(string(sizes),
			`"topo":"er 16 0.25"`, `"topo":"ring 16"`, 1), `"values":["8"`, `"values":["2"`, 1),

		// An OPEN cannot carry these hold times: under 3s every
		// session fails to open, a negative one flaps.
		"hold time under 3s":    strings.Replace(string(data), `"hold_time_ns":90000000000`, `"hold_time_ns":2000000000`, 1),
		"negative hold time":    strings.Replace(string(data), `"hold_time_ns":90000000000`, `"hold_time_ns":-90000000000`, 1),
		"hold time over 65535s": strings.Replace(string(data), `"hold_time_ns":90000000000`, `"hold_time_ns":65536000000000`, 1),

		// Every other front door refuses these base values; admitted,
		// a negative flap count panics in every run, a negative flap
		// period reports the storm converged at 0s, a negative MRAI
		// runs with no MRAI at all, a negative delay or timeout fails
		// every run, and a negative drain is a second address for the
		// run at 0.
		"negative flap cycles":       strings.Replace(string(counts), `"flap_cycles":6`, `"flap_cycles":-1`, 1),
		"negative flap period":       strings.Replace(string(counts), `"flap_period_ns":20000000000`, `"flap_period_ns":-20000000000`, 1),
		"negative base mrai":         strings.Replace(string(counts), `"mrai_ns":30000000000`, `"mrai_ns":-1000000000`, 1),
		"negative link delay":        strings.Replace(string(counts), `"link_delay_ns":0`, `"link_delay_ns":-1000000`, 1),
		"negative processing delay":  strings.Replace(string(counts), `"processing_delay_ns":25000000`, `"processing_delay_ns":-25000000`, 1),
		"negative timeout":           strings.Replace(string(counts), `"timeout_ns":7200000000000`, `"timeout_ns":-7200000000000`, 1),
		"negative establish timeout": strings.Replace(string(counts), `"establish_timeout_ns":300000000000`, `"establish_timeout_ns":-300000000000`, 1),
		"negative drain":             strings.Replace(string(counts), `"drain_ns":0`, `"drain_ns":-1`, 1),
		// Outside [0, 1] every run fails in experiment.New.
		"link loss over 1":   strings.Replace(string(counts), `"link_loss":0,`, `"link_loss":1.5,`, 1),
		"negative link loss": strings.Replace(string(counts), `"link_loss":0,`, `"link_loss":-0.25,`, 1),

		// The knobs behind these fields are gone: each re-encodes as the
		// constant the engine runs with, so the round-trip gate refuses
		// any other value by itself.
		"non-zero settle":         strings.Replace(string(counts), `"settle_ns":0`, `"settle_ns":10000000000`, 1),
		"negative settle":         strings.Replace(string(counts), `"settle_ns":0`, `"settle_ns":-1`, 1),
		"flap cycles 4":           strings.Replace(string(counts), `"flap_cycles":6`, `"flap_cycles":4`, 1),
		"flap period 10s":         strings.Replace(string(counts), `"flap_period_ns":20000000000`, `"flap_period_ns":10000000000`, 1),
		"timeout 1h":              strings.Replace(string(counts), `"timeout_ns":7200000000000`, `"timeout_ns":3600000000000`, 1),
		"establish timeout 1m":    strings.Replace(string(counts), `"establish_timeout_ns":300000000000`, `"establish_timeout_ns":60000000000`, 1),
		"keepalive fraction 4":    strings.Replace(string(counts), `"keepalive_fraction":3`, `"keepalive_fraction":4`, 1),
		"connect retry 1s":        strings.Replace(string(counts), `"connect_retry_ns":5000000000`, `"connect_retry_ns":1000000000`, 1),
		"withdraw penalty 900":    strings.Replace(string(modes), `"withdraw_penalty":1000`, `"withdraw_penalty":900`, 1),
		"update penalty 400":      strings.Replace(string(modes), `"update_penalty":500`, `"update_penalty":400`, 1),
		"suppress threshold 3000": strings.Replace(string(modes), `"suppress_threshold":2000`, `"suppress_threshold":3000`, 1),
		"reuse threshold 800":     strings.Replace(string(modes), `"reuse_threshold":750`, `"reuse_threshold":800`, 1),
		"max suppress 30m":        strings.Replace(string(modes), `"max_suppress_ns":3600000000000`, `"max_suppress_ns":1800000000000`, 1),

		"junk":           "not json",
		"version skew":   strings.Replace(string(data), `"version":2`, `"version":1`, 1),
		"unknown field":  strings.Replace(string(data), `"version":2`, `"version":2,"extra":true`, 1),
		"unknown axis":   strings.Replace(string(data), `"name":"mrai_s"`, `"name":"mrai_m"`, 1),
		"bad policy":     strings.Replace(string(data), `"policy":"permit-all"`, `"policy":"deny-most"`, 1),
		"zero runs":      strings.Replace(string(data), `"runs":2`, `"runs":0`, 1),
		"no event":       strings.Replace(string(data), `"event":"announcement"`, `"event":""`, 1),
		"bad seedpolicy": strings.Replace(string(data), `"seed_policy":"run"`, `"seed_policy":"dice"`, 1),
		// The knobs behind these two fields are gone: they re-encode as
		// false and 0, so the round-trip gate refuses anything else by
		// itself.
		"withdrawals immediate": strings.Replace(string(data), `"withdrawals_immediate":false`, `"withdrawals_immediate":true`, 1),
		"link jitter":           strings.Replace(string(data), `"link_jitter_ns":0`, `"link_jitter_ns":2000000`, 1),
		// Whitespace is a different byte spelling of the same spec: it
		// must be rejected, or one sweep would get two store addresses.
		"non-canonical whitespace": strings.Replace(string(data), `"runs":2`, `"runs": 2`, 1),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseCanonical([]byte(in)); err == nil {
				t.Fatalf("ParseCanonical accepted %s", name)
			}
		})
	} // A negative debounce is the disabled window, not a bad value.
	disabled := strings.Replace(string(counts), `"debounce_ns":100000000`, `"debounce_ns":-1`, 1)
	if _, err := ParseCanonical([]byte(disabled)); err != nil {
		t.Fatalf("ParseCanonical refused a negative (disabled) debounce: %v", err)
	}
}
