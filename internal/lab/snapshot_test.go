package lab

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
)

// snapTimers returns fast test timers; jitter makes the kernel RNG
// stream position (and so the per-run seed) matter.
func snapTimers(jitter bool) bgp.Timers {
	return bgp.Timers{
		HoldTime:          90 * time.Second,
		KeepaliveFraction: 3,
		ConnectRetry:      time.Second,
		MRAI:              2 * time.Second,
		MRAIJitter:        jitter,
	}
}

// TestRunWithSnapshotsMatchesRun is the lab-level round-trip property
// test: across seeded random (topology, policy, workload) triples, a
// trial run through the snapshot path — warm up, snapshot, restore,
// measure — must produce exactly the Result of the plain path, and a
// second run against the warm cache must hit and reproduce it again.
func TestRunWithSnapshotsMatchesRun(t *testing.T) {
	topos := []TopoSpec{
		{Kind: "clique", N: 5},
		{Kind: "ring", N: 6},
		{Kind: "line", N: 5},
		{Kind: "grid", N: 2, M: 3},
		{Kind: "er", N: 7, P: 0.6},
	}
	policies := []PolicySpec{{}, {Kind: PolicyGaoRexford}, {Kind: PolicyPrefixFilter}}
	workloads := []func(tr *Trial){
		func(tr *Trial) { tr.Event = Withdrawal },
		func(tr *Trial) { tr.Event = Announcement },
		func(tr *Trial) { tr.Event = Failover },
		func(tr *Trial) { tr.Event = Hijack },
		func(tr *Trial) {
			tr.Workload = Workload{
				{At: 0, Kind: KindWithdrawal},
				{At: 2 * time.Minute, Kind: KindAnnouncement},
			}
		},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		tr := Trial{
			Topo:     topos[rng.Intn(len(topos))],
			Policy:   policies[rng.Intn(len(policies))],
			Timers:   snapTimers(rng.Intn(2) == 0),
			Seed:     rng.Int63n(1000),
			TopoSeed: 7,
		}
		workloads[rng.Intn(len(workloads))](&tr)
		if rng.Intn(2) == 0 && tr.Topo.Nodes() >= 5 {
			tr.Placement = Placement{Strategy: PlaceLast, K: 2}
		}
		name := tr.Topo.String() + "/" + tr.Policy.String()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := tr.Run()
			if err != nil {
				t.Fatal(err)
			}
			cache := NewMemorySnapshotCache()
			cold, hit, err := tr.RunWithSnapshots(cache)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Fatal("first snapshot run reported a cache hit")
			}
			if !reflect.DeepEqual(cold, want) {
				t.Fatalf("cold snapshot run diverged from plain run:\nplain: %+v\nsnap:  %+v", want, cold)
			}
			warm, hit, err := tr.RunWithSnapshots(cache)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Fatal("second snapshot run missed the cache")
			}
			if !reflect.DeepEqual(warm, want) {
				t.Fatalf("warm snapshot run diverged from plain run:\nplain: %+v\nwarm:  %+v", want, warm)
			}
		})
	}
}

// TestWarmupKeySeparation pins which trial differences change the
// warm-up key (they reach the converged state) and which must not
// (they only shape the measurement after the fork point).
func TestWarmupKeySeparation(t *testing.T) {
	base := Trial{
		Topo:   TopoSpec{Kind: "clique", N: 5},
		Event:  Withdrawal,
		Timers: snapTimers(true),
		Seed:   1,
	}
	hash := func(tr Trial) string {
		h, err := tr.WarmupKeyHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	mutate := func(f func(*Trial)) Trial {
		tr := base
		f(&tr)
		return tr
	}

	// Warm-up-affecting differences must separate keys.
	differ := map[string]Trial{
		// OriginOnly trims the warm-up table: an origin-only and a
		// full-table warm-up must never share a snapshot (the >= 128
		// auto-enable in internal/figures relies on this).
		"origin-only":  mutate(func(tr *Trial) { tr.OriginOnly = true }),
		"topology":     mutate(func(tr *Trial) { tr.Topo = TopoSpec{Kind: "ring", N: 5} }),
		"topo-seed":    mutate(func(tr *Trial) { tr.TopoSeed = 9 }),
		"policy":       mutate(func(tr *Trial) { tr.Policy = PolicySpec{Kind: PolicyGaoRexford} }),
		"placement":    mutate(func(tr *Trial) { tr.Placement = Placement{Strategy: PlaceLast, K: 2} }),
		"mrai":         mutate(func(tr *Trial) { tr.Timers.MRAI = 5 * time.Second }),
		"link-loss":    mutate(func(tr *Trial) { tr.LinkLoss = 0.01 }),
		"damping":      mutate(func(tr *Trial) { tr.Damping = &bgp.DampingConfig{} }),
		"seed-jitter":  mutate(func(tr *Trial) { tr.Seed = 2 }),
		"first-event":  mutate(func(tr *Trial) { tr.Event = Announcement }),
		"dual-origin":  mutate(func(tr *Trial) { tr.Event = Failover }),
		"conv-timeout": mutate(func(tr *Trial) { tr.Timeout = time.Hour }),
	}
	for name, tr := range differ {
		if hash(tr) == hash(base) {
			t.Errorf("%s: warm-up key unchanged, trials would wrongly share a snapshot", name)
		}
	}

	// Measurement-only differences must share the key.
	same := map[string]Trial{
		"drain":      mutate(func(tr *Trial) { tr.Drain = 10 * time.Minute }),
		"wall-limit": mutate(func(tr *Trial) { tr.WallLimit = time.Minute }),
		"schedule-tail": mutate(func(tr *Trial) {
			tr.Event = 0
			tr.Workload = Workload{
				{At: 0, Kind: KindWithdrawal},
				{At: 5 * time.Minute, Kind: KindAnnouncement},
			}
		}),
	}
	for name, tr := range same {
		if hash(tr) != hash(base) {
			t.Errorf("%s: warm-up key changed, identical warm-ups would not share a snapshot", name)
		}
	}

	// The flap sugar's storm shape is pure measurement: every cycle
	// count compiles to the same withdraw-first warm-up.
	flap := mutate(func(tr *Trial) { tr.Event = Flap })
	flap12 := mutate(func(tr *Trial) { tr.Event = Flap; tr.FlapCycles = 12 })
	if hash(flap) != hash(flap12) {
		t.Error("flap cycle count changed the warm-up key")
	}

	// Without seeded warm-up draws (no jitter, no loss) one snapshot
	// serves every seed: the restore forks the shared warm-up.
	quiet := mutate(func(tr *Trial) { tr.Timers = snapTimers(false) })
	quiet2 := quiet
	quiet2.Seed = 99
	if hash(quiet) != hash(quiet2) {
		t.Error("seed changed the key of a draw-free warm-up; runs would never share it")
	}
}

// TestSweepSnapshotsEquivalent is the sweep-level equivalence check:
// the same sweep with and without a snapshot cache must produce
// deep-equal results and byte-identical encoded output, sequentially
// and across 8 workers — and the cache must actually get warm.
func TestSweepSnapshotsEquivalent(t *testing.T) {
	plain := baseSweep()
	plain.Parallelism = 1
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	cache := NewMemorySnapshotCache()
	snap := baseSweep()
	snap.Parallelism = 1
	snap.Snapshots = cache
	got, err := snap.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot sweep diverged:\nplain: %+v\nsnap:  %+v", want, got)
	}
	// DefaultTimers jitter makes every (cell, run) seed-distinct, so
	// the first pass misses everywhere; a second pass over the same
	// cache must hit every warm-up and reproduce the results.
	if cache.Len() != 9 {
		t.Fatalf("cached %d warm-ups, want 9 (3 cells x 3 runs, jittered)", cache.Len())
	}
	before := cache.Hits()
	again := baseSweep()
	again.Parallelism = 1
	again.Snapshots = cache
	rerun, err := again.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rerun, want) {
		t.Fatalf("warm-cache sweep diverged:\nplain: %+v\nwarm:  %+v", want, rerun)
	}
	if hits := cache.Hits() - before; hits != 9 {
		t.Fatalf("warm rerun hit %d warm-ups, want 9", hits)
	}

	par := baseSweep()
	par.Parallelism = 8
	par.Snapshots = cache
	parRes, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parRes, want) {
		t.Fatalf("parallel snapshot sweep diverged:\nplain:    %+v\nparallel: %+v", want, parRes)
	}
	for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
		var a, b strings.Builder
		if err := Write(&a, f, want); err != nil {
			t.Fatal(err)
		}
		if err := Write(&b, f, parRes); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s output differs with snapshots:\n--- plain ---\n%s--- snapshots ---\n%s", f, a.String(), b.String())
		}
	}
}

// TestSweepSnapshotsForkSharing pins the fork path inside a sweep:
// with jitter off and no loss the warm-up consumes no seeded draws, so
// one snapshot per cell serves every run seed and the per-run forks
// still match the plain (never-snapshotted) execution exactly.
func TestSweepSnapshotsForkSharing(t *testing.T) {
	mk := func() Sweep {
		sw := baseSweep()
		sw.Base.Timers = snapTimers(false)
		sw.Parallelism = 1
		return sw
	}
	plain := mk()
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMemorySnapshotCache()
	snap := mk()
	snap.Snapshots = cache
	got, err := snap.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("forked sweep diverged:\nplain: %+v\nfork:  %+v", want, got)
	}
	if cache.Len() != 3 {
		t.Fatalf("cached %d warm-ups, want 3 (one per cell, shared across runs)", cache.Len())
	}
	if cache.Hits() != 6 {
		t.Fatalf("fork sharing hit %d warm-ups, want 6 (2 of 3 runs per cell)", cache.Hits())
	}
}

// TestWarmupKeyCoversCanonicalTrial is the warm-up key's completeness
// contract: the key embeds the canonical trial, so every canonical
// field is either carried verbatim — changing it moves
// WarmupKeyHash() and splits the warm-up — or is one of the five
// post-fork fields the key blanks. A field added to canonicalTrial is
// carried until someone blanks it, so it can cost sharing but never
// share a stale warm-up.
func TestWarmupKeyCoversCanonicalTrial(t *testing.T) {
	postFork := map[string]bool{"Event": true, "Workload": true, "DrainNS": true, "FlapCycles": true, "FlapPeriodNS": true}
	// Every canonical field non-zero, so that carried and blanked differ.
	trials := []Trial{{
		Topo:             TopoSpec{Kind: "clique", N: 5},
		Placement:        Placement{Strategy: PlaceLast, K: 2},
		Policy:           PolicySpec{Kind: PolicyGaoRexford},
		Event:            Flap,
		Drain:            time.Minute,
		Timers:           snapTimers(true),
		Debounce:         100 * time.Millisecond,
		Settle:           time.Second,
		ProcessingDelay:  25 * time.Millisecond,
		LinkDelay:        time.Millisecond,
		LinkJitter:       time.Millisecond,
		LinkLoss:         0.01,
		Damping:          &bgp.DampingConfig{},
		OriginOnly:       true,
		Timeout:          time.Hour,
		EstablishTimeout: time.Minute,
	}}
	withSchedule := trials[0]
	withSchedule.Workload = Workload{{Kind: KindWithdrawal}, {At: time.Minute, Kind: KindAnnouncement}}
	trials = append(trials, withSchedule)

	seen := map[string]bool{}
	for _, tr := range trials {
		raw, err := tr.WarmupKey()
		if err != nil {
			t.Fatal(err)
		}
		var key warmupKey
		if err := json.Unmarshal(raw, &key); err != nil {
			t.Fatal(err)
		}
		got, want := reflect.ValueOf(key.Trial), reflect.ValueOf(tr.canonical())
		for i := 0; i < want.NumField(); i++ {
			name := want.Type().Field(i).Name
			if want.Field(i).IsZero() {
				continue
			}
			seen[name] = true
			switch {
			case postFork[name] && !got.Field(i).IsZero():
				t.Errorf("post-fork field %s reached the warm-up key: %v", name, got.Field(i))
			case !postFork[name] && !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()):
				t.Errorf("canonical field %s is not carried into the warm-up key: %v, want %v", name, got.Field(i), want.Field(i))
			}
		}
	}
	typ := reflect.TypeOf(canonicalTrial{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		// "withdrawals_immediate" is the constant false of a knob that
		// is gone: no trial can set it.
		if !seen[f.Name] && f.Tag.Get("json") != "withdrawals_immediate" {
			t.Errorf("canonical field %s was zero in every test trial; give it a value so the check covers it", f.Name)
		}
	}
}
