package lab

import (
	"testing"
	"time"

	"repro/internal/bgp"
)

// TestCanonicalPinned pins the canonical spec serialization byte for
// byte. The bytes are a cache address: any change to this encoding
// silently orphans every record in every artifact store, so changing
// it must be a deliberate act that updates this pin (and should bump
// canonicalVersion).
func TestCanonicalPinned(t *testing.T) {
	timers := bgp.DefaultTimers()
	timers.MRAI = 10 * time.Second
	sw := Sweep{
		Name: "fig2",
		Base: Trial{
			Topo:            TopoSpec{Kind: "clique", N: 6},
			Event:           Withdrawal,
			Timers:          timers,
			Debounce:        100 * time.Millisecond,
			ProcessingDelay: 25 * time.Millisecond,
		},
		Axis:       SDNCounts(0, 3, 6),
		Runs:       3,
		BaseSeed:   21,
		SeedPolicy: SeedCellRun,
	}
	got, err := sw.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"version":2,"base":{"topo":"clique 6","placement":"last 0","policy":"permit-all","event":"withdrawal","drain_ns":0,"hold_time_ns":90000000000,"keepalive_fraction":3,"connect_retry_ns":5000000000,"mrai_ns":10000000000,"withdrawals_immediate":false,"mrai_jitter":true,"debounce_ns":100000000,"settle_ns":0,"processing_delay_ns":25000000,"link_delay_ns":0,"link_jitter_ns":0,"link_loss":0,"flap_cycles":6,"flap_period_ns":20000000000,"origin_only":false,"timeout_ns":7200000000000,"establish_timeout_ns":300000000000},"axis":{"name":"sdn_k","values":["0","3","6"]},"runs":3,"base_seed":21,"seed_policy":"cell-run"}`
	if string(got) != want {
		t.Fatalf("canonical bytes changed:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestCanonicalDampingDefaultsResolved asserts the zero DampingConfig
// and its spelled-out defaults share one address.
func TestCanonicalDampingDefaultsResolved(t *testing.T) {
	mk := func(d *bgp.DampingConfig) Sweep {
		return Sweep{
			Base: Trial{Topo: TopoSpec{Kind: "clique", N: 4}, Damping: d},
			Axis: SDNCounts(0),
		}
	}
	zero, err := mk(&bgp.DampingConfig{}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	resolved := (&bgp.DampingConfig{}).Resolved()
	spelled, err := mk(&resolved).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(zero) != string(spelled) {
		t.Fatalf("zero damping and its resolved defaults address differently:\n%s\n%s", zero, spelled)
	}
}

// TestCanonicalWorkloadMasksEvent asserts the ignored Event sugar does
// not move the address once an explicit Workload is set.
func TestCanonicalWorkloadMasksEvent(t *testing.T) {
	mk := func(ev Event) Sweep {
		return Sweep{
			Base: Trial{
				Topo:     TopoSpec{Kind: "clique", N: 4},
				Event:    ev,
				Workload: Workload{{Kind: KindWithdrawal}},
			},
			Axis: SDNCounts(0),
		}
	}
	a, err := mk(Withdrawal).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk(Announcement).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("Event moved the address although an explicit Workload overrides it")
	}
}

// TestCanonicalDebounceAxisDisambiguated asserts distinct negative
// debounce values (both labelled "off") address differently.
func TestCanonicalDebounceAxisDisambiguated(t *testing.T) {
	mk := func(d time.Duration) Sweep {
		return Sweep{
			Base: Trial{Topo: TopoSpec{Kind: "clique", N: 4}, Placement: Placement{Strategy: PlaceLast, K: 2}},
			Axis: Debounces(d, time.Second),
		}
	}
	a, err := mk(-1).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk(-2 * time.Millisecond).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(b) {
		t.Fatal("distinct debounce axis values share one address")
	}
}

// nopCache is a CellCache that never hits (for the cover test).
type nopCache struct{}

func (nopCache) Load(int, int) (Result, bool, error)      { return Result{}, false, nil }
func (nopCache) Store(int, int, Result) error             { return nil }
func (nopCache) StoreFailure(int, int, CellFailure) error { return nil }
