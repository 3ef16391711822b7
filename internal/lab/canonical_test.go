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

// TestCanonicalIgnoresExecutionKnobs asserts that presentation and
// execution fields do not move the content address, while every
// result-determining field does.
func TestCanonicalIgnoresExecutionKnobs(t *testing.T) {
	base := func() Sweep {
		return Sweep{
			Base: Trial{
				Topo:  TopoSpec{Kind: "clique", N: 4},
				Event: Withdrawal,
			},
			Axis:     SDNCounts(0, 2),
			Runs:     2,
			BaseSeed: 5,
		}
	}
	ref, err := base().Canonical()
	if err != nil {
		t.Fatal(err)
	}

	same := []struct {
		name string
		mut  func(*Sweep)
	}{
		{"name", func(s *Sweep) { s.Name = "renamed" }},
		{"parallelism", func(s *Sweep) { s.Parallelism = 8 }},
		{"progress", func(s *Sweep) { s.Progress = func(int, int) {} }},
		{"cache", func(s *Sweep) { s.Cache = nopCache{} }},
		{"default runs spelled out", func(s *Sweep) { s.Runs = 2 }},
		{"default timers spelled out", func(s *Sweep) { s.Base.Timers = bgp.DefaultTimers() }},
		{"partial timers resolved", func(s *Sweep) {
			// A hand-built Timers whose unset fields the router
			// defaults anyway; jitter spelled out to match.
			s.Base.Timers = bgp.Timers{MRAI: 30 * time.Second, MRAIJitter: true}
		}},
		{"default timeout spelled out", func(s *Sweep) { s.Base.Timeout = 2 * time.Hour }},
		{"wall limit", func(s *Sweep) { s.Base.WallLimit = time.Minute }},
		{"tolerate", func(s *Sweep) { s.Tolerate = true }},
		{"retries", func(s *Sweep) { s.Retries = 2 }},
		{"inject seam", func(s *Sweep) { s.Inject = func(int, int) error { return nil } }},
	}
	for _, tc := range same {
		s := base()
		tc.mut(&s)
		got, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(ref) {
			t.Errorf("%s changed the canonical bytes but cannot change results", tc.name)
		}
	}

	differs := []struct {
		name string
		mut  func(*Sweep)
	}{
		{"topology", func(s *Sweep) { s.Base.Topo.N = 5 }},
		{"placement", func(s *Sweep) { s.Base.Placement = Placement{Strategy: PlaceDegree} }},
		{"policy", func(s *Sweep) { s.Base.Policy = PolicySpec{Kind: PolicyGaoRexford} }},
		{"event", func(s *Sweep) { s.Base.Event = Announcement }},
		{"workload", func(s *Sweep) { s.Base.Workload = Workload{{Kind: KindWithdrawal}} }},
		{"mrai", func(s *Sweep) { s.Base.Timers = bgp.DefaultTimers(); s.Base.Timers.MRAI = 5 * time.Second }},
		{"mrai jitter", func(s *Sweep) { s.Base.Timers = bgp.DefaultTimers(); s.Base.Timers.MRAIJitter = false }},
		{"debounce", func(s *Sweep) { s.Base.Debounce = -1 }},
		{"damping", func(s *Sweep) { s.Base.Damping = &bgp.DampingConfig{} }},
		{"origin-only", func(s *Sweep) { s.Base.OriginOnly = true }},
		{"link delay", func(s *Sweep) { s.Base.LinkDelay = 7 * time.Millisecond }},
		{"link jitter", func(s *Sweep) { s.Base.LinkJitter = 2 * time.Millisecond }},
		{"link loss", func(s *Sweep) { s.Base.LinkLoss = 0.05 }},
		{"axis values", func(s *Sweep) { s.Axis = SDNCounts(0, 4) }},
		{"loss axis", func(s *Sweep) { s.Axis = Losses(0, 0.02) }},
		{"axis kind", func(s *Sweep) { s.Axis = TopoSizes(4, 6) }},
		{"runs", func(s *Sweep) { s.Runs = 3 }},
		{"base seed", func(s *Sweep) { s.BaseSeed = 6 }},
		{"seed policy", func(s *Sweep) { s.SeedPolicy = SeedCellRun }},
	}
	for _, tc := range differs {
		s := base()
		tc.mut(&s)
		got, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == string(ref) {
			t.Errorf("%s did not change the canonical bytes but changes results", tc.name)
		}
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

// nopCache is a CellCache that never hits (for the knob test).
type nopCache struct{}

func (nopCache) Load(int, int) (Result, bool, error) { return Result{}, false, nil }
func (nopCache) Store(int, int, Result) error        { return nil }
