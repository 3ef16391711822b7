package lab

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
)

// TestEventNameRoundTrip is the property test over the shared name
// table: parse∘string and parse∘verb are the identity for every kind,
// and the trial-event sugar shares the same names.
func TestEventNameRoundTrip(t *testing.T) {
	kinds := EventKinds()
	if len(kinds) != 13 {
		t.Fatalf("kinds = %d, want 13", len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		for _, s := range []string{k.String(), k.Verb()} {
			got, err := ParseEventKind(s)
			if err != nil || got != k {
				t.Fatalf("ParseEventKind(%q) = %v, %v; want %v", s, got, err, k)
			}
		}
		if seen[k.String()] {
			t.Fatalf("duplicate kind name %q", k)
		}
		seen[k.String()] = true
	}
	for _, ev := range []Event{Withdrawal, Announcement, Failover, Flap, Hijack} {
		got, err := ParseEvent(ev.String())
		if err != nil || got != ev {
			t.Fatalf("ParseEvent(%q) = %v, %v", ev.String(), got, err)
		}
		if EventKind(ev).String() != ev.String() {
			t.Fatalf("event %v and kind %v disagree on the name", ev, EventKind(ev))
		}
	}
	if _, err := ParseEventKind("earthquake"); err == nil {
		t.Fatal("unknown kind should error")
	}
	// The workload-only kinds are not trial events.
	for _, s := range []string{"linkdown", "linkup", "migrate", "ctrl-down", "ctrl-up", "session-reset", "partition", "heal"} {
		if _, err := ParseEvent(s); err == nil {
			t.Fatalf("ParseEvent(%q) should error (workload-only kind)", s)
		}
	}
}

// parseWorkloadGood and parseWorkloadBad are TestParseWorkload's
// inputs, which also seed FuzzParseWorkload.
var (
	parseWorkloadGood = "at 0s withdraw; at 10m announce 3;\nat 15m linkdown 1 2; at 16m linkup 1 2; at 20m migrate 4; at 21m failover 5 6; at 22m hijack"
	parseWorkloadBad  = []string{
		"",                      // empty schedule
		"at x withdraw",         // bad offset
		"at 0s explode",         // unknown verb
		"at 0s linkdown 1",      // missing endpoint
		"at 0s withdraw 1 2",    // too many targets
		"at 0s flap",            // trial sugar, not schedulable
		"at -5s withdraw",       // negative offset
		"at 0s failover 1",      // failover takes 0 or 2 targets
		"at 0s announce twelve", // bad AS
	}
)

func TestParseWorkload(t *testing.T) {
	w, err := ParseWorkload(parseWorkloadGood)
	if err != nil {
		t.Fatal(err)
	}
	want := Workload{
		{At: 0, Kind: KindWithdrawal},
		{At: 10 * time.Minute, Kind: KindAnnouncement, AS: 3},
		{At: 15 * time.Minute, Kind: KindLinkDown, A: 1, B: 2},
		{At: 16 * time.Minute, Kind: KindLinkUp, A: 1, B: 2},
		{At: 20 * time.Minute, Kind: KindMigrate, AS: 4},
		{At: 21 * time.Minute, Kind: KindFailover, A: 5, B: 6},
		{At: 22 * time.Minute, Kind: KindHijack},
	}
	if !reflect.DeepEqual(w, want) {
		t.Fatalf("parsed = %+v, want %+v", w, want)
	}
	if got := w.String(); !strings.Contains(got, "withdraw@0s") || !strings.Contains(got, "linkdown(1-2)@15m0s") {
		t.Fatalf("Workload.String = %q", got)
	}
	for _, bad := range parseWorkloadBad {
		if _, err := ParseWorkload(bad); err == nil {
			t.Fatalf("ParseWorkload(%q) should error", bad)
		}
	}
}

// workloadTrial is the shared small trial the equivalence tests run.
func workloadTrial() Trial {
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	return Trial{
		Topo:      TopoSpec{Kind: "clique", N: 6},
		Placement: Placement{Strategy: PlaceLast, K: 2},
		Timers:    timers,
		Debounce:  100 * time.Millisecond,
		Seed:      21,
	}
}

// TestEventSugarEquivalence pins the tentpole's compatibility promise:
// Trial.Event is sugar for an equivalent explicit Workload, producing
// an identical Result — the epoch engine and the legacy single-event
// path are the same code.
func TestEventSugarEquivalence(t *testing.T) {
	for _, tc := range []struct {
		event    Event
		workload Workload
		drain    time.Duration
	}{
		{Withdrawal, Workload{{Kind: KindWithdrawal}}, 0},
		{Announcement, Workload{{Kind: KindAnnouncement}}, 0},
		{Failover, Workload{{Kind: KindFailover}}, 0},
		{Hijack, Workload{{Kind: KindHijack}}, 0},
		{Flap, FlapWorkload(6, 20*time.Second), 10 * time.Minute},
	} {
		sugar := workloadTrial()
		sugar.Event = tc.event
		explicit := workloadTrial()
		explicit.Workload = tc.workload
		explicit.Drain = tc.drain
		sugarRes, err := sugar.Run()
		if err != nil {
			t.Fatalf("%s sugar: %v", tc.event, err)
		}
		explicitRes, err := explicit.Run()
		if err != nil {
			t.Fatalf("%s explicit: %v", tc.event, err)
		}
		if !reflect.DeepEqual(sugarRes, explicitRes) {
			t.Fatalf("%s: sugar and explicit workload diverge:\nsugar:    %+v\nexplicit: %+v",
				tc.event, sugarRes, explicitRes)
		}
		if len(sugarRes.Epochs) == 0 {
			t.Fatalf("%s: no epochs recorded", tc.event)
		}
	}
}

// TestFlapConvergenceDefined pins the satellite fix: the Flap storm
// now reports a defined Result.Convergence — the time from the last
// cycle's re-announce to quiescence under the epoch model — instead
// of the old documented zero. The updates pin (277) matches the
// pre-epoch flap ablation for the same seed, so only the convergence
// definition changed.
func TestFlapConvergenceDefined(t *testing.T) {
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	trial := Trial{
		Topo:     TopoSpec{Kind: "clique", N: 6},
		Workload: FlapWorkload(4, 10*time.Second),
		Drain:    flapDrain,
		Timers:   timers,
		Seed:     13,
	}
	res, err := trial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Convergence, 4320376076*time.Nanosecond; got != want {
		t.Fatalf("flap convergence = %v, want the pinned %v", got, want)
	}
	if res.UpdatesSent != 277 {
		t.Fatalf("flap updates = %d, want the pre-epoch 277", res.UpdatesSent)
	}
	if len(res.Epochs) != 8 {
		t.Fatalf("flap epochs = %d, want 2 per cycle = 8", len(res.Epochs))
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.Kind != KindAnnouncement || last.Convergence != res.Convergence {
		t.Fatalf("last epoch = %+v, want the final re-announce carrying the storm's convergence", last)
	}
	if !res.ReachableAfter {
		t.Fatal("prefix unreachable after the storm")
	}
}

// TestMaintenanceWindowTrial runs the canonical two-event timeline —
// withdraw, then re-announce after a maintenance window — and checks
// the per-epoch slices are consistent with the end-to-end totals.
func TestMaintenanceWindowTrial(t *testing.T) {
	trial := workloadTrial()
	trial.Workload = Workload{
		{At: 0, Kind: KindWithdrawal},
		{At: 2 * time.Minute, Kind: KindAnnouncement},
	}
	res, err := trial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(res.Epochs))
	}
	if res.Epochs[0].Kind != KindWithdrawal || res.Epochs[1].Kind != KindAnnouncement {
		t.Fatalf("epoch kinds = %v, %v", res.Epochs[0].Kind, res.Epochs[1].Kind)
	}
	if !res.ReachableAfter {
		t.Fatal("prefix unreachable after the re-announce")
	}
	if res.Convergence != res.Epochs[1].Convergence {
		t.Fatalf("Result.Convergence %v != final epoch %v", res.Convergence, res.Epochs[1].Convergence)
	}
	for i, ep := range res.Epochs {
		if ep.Convergence <= 0 {
			t.Fatalf("epoch %d: no convergence measured", i)
		}
		if ep.UpdatesSent == 0 {
			t.Fatalf("epoch %d: no update load measured", i)
		}
	}
	var sent, recv uint64
	var changes int
	for _, ep := range res.Epochs {
		sent += ep.UpdatesSent
		recv += ep.UpdatesReceived
		changes += ep.BestPathChanges
	}
	if sent != res.UpdatesSent || recv != res.UpdatesReceived || changes != res.BestPathChanges {
		t.Fatalf("epoch sums (sent %d recv %d changes %d) != totals (%d %d %d)",
			sent, recv, changes, res.UpdatesSent, res.UpdatesReceived, res.BestPathChanges)
	}
}

// TestMigrateWorkloadTrial drives the new migrate event through a
// trial: a legacy AS joins the cluster mid-run, then the origin
// withdraws and re-announces — the network must end fully reachable
// with the migrated AS clustered.
func TestMigrateWorkloadTrial(t *testing.T) {
	trial := workloadTrial()
	trial.Workload = Workload{
		{At: 0, Kind: KindMigrate, AS: 2},
		{At: time.Minute, Kind: KindWithdrawal},
		{At: 3 * time.Minute, Kind: KindAnnouncement},
	}
	res, err := trial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(res.Epochs))
	}
	if !res.ReachableAfter {
		t.Fatal("prefix unreachable after migrate + maintenance cycle")
	}
	if res.Epochs[0].Kind != KindMigrate {
		t.Fatalf("first epoch = %v, want migrate", res.Epochs[0].Kind)
	}
	// Migration re-establishes sessions with the speaker: real update
	// load must be attributed to its epoch.
	if res.Epochs[0].UpdatesSent == 0 {
		t.Fatal("migrate epoch measured no routing activity")
	}
}

// TestLinkDownUpWorkloadTrial exercises the linkdown/linkup pair: the
// origin loses a link and regains it; the network ends reachable.
func TestLinkDownUpWorkloadTrial(t *testing.T) {
	trial := workloadTrial()
	trial.Workload = Workload{
		{At: 0, Kind: KindLinkDown, A: 1, B: 2},
		{At: 2 * time.Minute, Kind: KindLinkUp, A: 1, B: 2},
	}
	res, err := trial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachableAfter {
		t.Fatal("prefix unreachable after link restore")
	}
	if res.Epochs[0].UpdatesSent == 0 {
		t.Fatal("linkdown epoch measured no routing activity")
	}
}

// TestWorkloadSweepDeterministicAcrossParallelism extends the
// determinism guard to multi-event workloads (including a mid-run
// migration): the same sweep must produce identical results — and
// byte-identical encodings — at any parallelism.
func TestWorkloadSweepDeterministicAcrossParallelism(t *testing.T) {
	mk := func(p int) Sweep {
		s := baseSweep()
		s.Axis = SDNCounts(2, 4)
		s.Base.Workload = Workload{
			{At: 0, Kind: KindMigrate, AS: 1},
			{At: time.Minute, Kind: KindWithdrawal},
			{At: 3 * time.Minute, Kind: KindAnnouncement},
		}
		s.Parallelism = p
		return s
	}
	seqRes, err := mk(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := mk(8).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("workload results differ:\nsequential: %+v\nparallel:   %+v", seqRes, parRes)
	}
	for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
		var a, b strings.Builder
		if err := Write(&a, f, seqRes); err != nil {
			t.Fatal(err)
		}
		if err := Write(&b, f, parRes); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s output differs:\n--- sequential ---\n%s--- parallel ---\n%s", f, a.String(), b.String())
		}
	}
	for _, c := range seqRes.Cells {
		if len(c.Epochs) != 3 {
			t.Fatalf("cell %s: epoch aggregates = %d, want 3", c.Label, len(c.Epochs))
		}
	}
	// The boxplot renderer draws the same epochs, one box per cell.
	for i := 0; i < 3; i++ {
		if boxes := seqRes.boxes(i); len(boxes) != len(seqRes.Cells) {
			t.Fatalf("boxes(%d) = %d boxes, want %d", i, len(boxes), len(seqRes.Cells))
		}
	}
	svgs, err := seqRes.Boxplots("")
	if err != nil {
		t.Fatal(err)
	}
	if len(svgs) != 4 {
		t.Fatalf("Boxplots = %d plots, want the main one and 3 epochs", len(svgs))
	}
}

// TestRunWorkloadValidation pins the scenario-context restrictions.
func TestRunWorkloadValidation(t *testing.T) {
	if _, err := RunWorkload(nil, Workload{{Kind: KindWithdrawal}}, 0, 0, 0); err == nil {
		t.Fatal("RunWorkload without an origin should error")
	}
	if _, err := RunWorkload(nil, Workload{{Kind: KindFailover}}, 1, 0, 0); err == nil {
		t.Fatal("RunWorkload with an unresolved failover should error")
	}
	if _, err := RunWorkload(nil, nil, 1, 0, 0); err == nil {
		t.Fatal("RunWorkload with an empty schedule should error")
	}
}

// TestWorkloadValidate covers the schedule-level checks not reachable
// through the string parser.
func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{{Kind: EventKind(99)}}).Validate(); err == nil {
		t.Fatal("unknown kind should fail validation")
	}
	if err := (Workload{{Kind: KindFlap}}).Validate(); err == nil {
		t.Fatal("flap entries should fail validation")
	}
	if err := (Workload{{Kind: KindWithdrawal, At: -1}}).Validate(); err == nil {
		t.Fatal("negative offsets should fail validation")
	}
	// A failover names a whole link or none — one endpoint would only
	// fail mid-simulation, after the full warm-up.
	if err := (Workload{{Kind: KindFailover, A: 2}}).Validate(); err == nil {
		t.Fatal("failover with one endpoint should fail validation")
	}
	if err := (Workload{{Kind: KindFailover, A: 2, B: 3}}).Validate(); err != nil {
		t.Fatalf("failover with a full link should validate: %v", err)
	}
	if err := (Workload{{Kind: KindFailover}}).Validate(); err != nil {
		t.Fatalf("failover with no target should validate: %v", err)
	}
}

// TestPoissonWorkload pins the churn generator's shape: seeded
// determinism, alternation, even length, non-decreasing offsets.
func TestPoissonWorkload(t *testing.T) {
	a := PoissonWorkload(7, 5, 30*time.Second)
	b := PoissonWorkload(7, 5, 30*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must draw the same schedule")
	}
	if len(a) != 6 {
		t.Fatalf("odd n must round up: len = %d, want 6", len(a))
	}
	for i, ev := range a {
		wantKind := KindWithdrawal
		if i%2 == 1 {
			wantKind = KindAnnouncement
		}
		if ev.Kind != wantKind {
			t.Fatalf("event %d kind = %v, want %v", i, ev.Kind, wantKind)
		}
		if i > 0 && ev.At < a[i-1].At {
			t.Fatalf("offsets must be non-decreasing: %v after %v", ev.At, a[i-1].At)
		}
	}
	if c := PoissonWorkload(8, 5, 30*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should draw different schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTotalsAreTheEpochSums runs trials whose first event waits past
// the warm-up (At > 0) and holds Result's four totals to the sums over
// its epochs, and to the experiment's own counters read across the
// whole measurement phase, from its start to the end of the drain:
// the epochs must cover that phase, the wait before the first trigger
// included. ReachableAfter must be the experiment's AllReachable.
func TestTotalsAreTheEpochSums(t *testing.T) {
	pure := workloadTrial()
	pure.Placement = Placement{}
	for _, tc := range []struct {
		name  string
		trial Trial
		w     Workload
	}{
		{"one event", workloadTrial(), Workload{{At: 40 * time.Second, Kind: KindWithdrawal}}},
		{"maintenance", workloadTrial(), Workload{
			{At: 45 * time.Second, Kind: KindWithdrawal},
			{At: 3 * time.Minute, Kind: KindAnnouncement},
		}},
		{"pure churn", pure, PoissonWorkload(5, 4, time.Minute)},
		{"hijack then withdraw", workloadTrial(), Workload{
			{At: 20 * time.Second, Kind: KindHijack},
			{At: 2 * time.Minute, Kind: KindWithdrawal},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.w[0].At <= 0 {
				t.Fatalf("schedule %v opens at %v, want a wait", tc.w, tc.w[0].At)
			}
			trial := tc.trial
			trial.Workload = tc.w
			p, err := trial.prepare()
			if err != nil {
				t.Fatal(err)
			}
			e, err := p.warmup()
			if err != nil {
				t.Fatal(err)
			}
			prefix, err := e.OriginPrefix(p.origin)
			if err != nil {
				t.Fatal(err)
			}
			sent0, recv0 := e.UpdateTotals()
			recomp0 := recomputes(e)
			start := e.K.Now()
			res, err := p.measure(e)
			if err != nil {
				t.Fatal(err)
			}

			var sum Epoch
			for _, ep := range res.Epochs {
				sum.UpdatesSent += ep.UpdatesSent
				sum.UpdatesReceived += ep.UpdatesReceived
				sum.Recomputes += ep.Recomputes
				sum.BestPathChanges += ep.BestPathChanges
			}
			sent1, recv1 := e.UpdateTotals()
			whole := Epoch{
				UpdatesSent:     sent1 - sent0,
				UpdatesReceived: recv1 - recv0,
				Recomputes:      recomputes(e) - recomp0,
			}
			for _, n := range e.Log.PathExplorationCount(prefix, start) {
				whole.BestPathChanges += n
			}
			got := Epoch{
				UpdatesSent:     res.UpdatesSent,
				UpdatesReceived: res.UpdatesReceived,
				Recomputes:      res.Recomputes,
				BestPathChanges: res.BestPathChanges,
			}
			if got != sum {
				t.Fatalf("totals %+v, epoch sums %+v", got, sum)
			}
			if got != whole {
				t.Fatalf("totals %+v, the whole measurement phase %+v", got, whole)
			}
			if got.UpdatesSent == 0 || got.BestPathChanges == 0 {
				t.Fatalf("totals %+v: the schedule measured nothing", got)
			}
			if trial.Placement.K > 0 && got.Recomputes == 0 {
				t.Fatalf("totals %+v: the cluster never recomputed", got)
			}
			if want := e.AllReachable(p.origin); res.ReachableAfter != want {
				t.Fatalf("ReachableAfter = %v, AllReachable = %v", res.ReachableAfter, want)
			}
		})
	}
}
