package bgp_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/lab"
	"repro/internal/topology"
)

// borrowedRun is everything one clique-8, K=4 run shows its consumers:
// a trial's metrics, and from the same configuration driven by hand,
// every router's counters and the event log's recorded timeline.
type borrowedRun struct {
	result   lab.Result
	stats    []bgp.Stats
	timeline string
}

func runBorrowed(t *testing.T) borrowedRun {
	t.Helper()
	timers := bgp.Timers{MRAI: 5 * time.Second, MRAIJitter: true}
	const processing = 5 * time.Millisecond
	var out borrowedRun

	res, err := lab.Trial{
		Topo:            lab.TopoSpec{Kind: "clique", N: 8},
		Placement:       lab.Placement{Strategy: lab.PlaceLast, K: 4},
		Timers:          timers,
		ProcessingDelay: processing,
		Seed:            7,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	out.result = res

	g, err := topology.Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := experiment.New(experiment.Config{
		Seed:            7,
		Graph:           g,
		SDNMembers:      []idr.ASN{5, 6, 7, 8},
		Timers:          timers,
		ProcessingDelay: processing,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Log.RecordPaths()
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitEstablished(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, asn := range e.ASNs() {
		if err := e.Announce(asn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.WaitConverged(time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MeasureConvergence(func() error { return e.Withdraw(1) }, time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, asn := range e.ASNs() {
		if r, ok := e.Routers[asn]; ok {
			out.stats = append(out.stats, r.Stats())
		}
	}
	pfx, err := e.OriginPrefix(1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Log.WriteTimeline(&sb, pfx); err != nil {
		t.Fatal(err)
	}
	out.timeline = sb.String()
	return out
}

// TestBorrowedMeansBorrowed pins the lending contract of Owner.Update,
// Config.Trace and the speaker's handler: a *wire.Update or *rib.Change
// handed to them is theirs until they return and not a moment longer.
// The run is made twice, the second time with every lent message and
// change overwritten with garbage as soon as its callbacks are back —
// legacy routers behind a ProcessingDelay queue, cluster speaker
// sessions and the event log all receive them — and
// nothing anybody computed may differ.
func TestBorrowedMeansBorrowed(t *testing.T) {
	clean := runBorrowed(t)
	bgp.PoisonLent(t)
	poisoned := runBorrowed(t)

	if len(clean.stats) == 0 || !strings.Contains(clean.timeline, " -> [") {
		t.Fatalf("the run showed nothing to compare: %d routers, timeline %q",
			len(clean.stats), clean.timeline)
	}
	if clean.result.UpdatesSent == 0 || clean.result.BestPathChanges == 0 {
		t.Fatalf("the trial measured nothing: %+v", clean.result)
	}
	if !reflect.DeepEqual(clean.result, poisoned.result) {
		t.Errorf("lab.Result differs:\n clean    %+v\n poisoned %+v", clean.result, poisoned.result)
	}
	if !reflect.DeepEqual(clean.stats, poisoned.stats) {
		t.Errorf("router Stats differ:\n clean    %+v\n poisoned %+v", clean.stats, poisoned.stats)
	}
	if clean.timeline != poisoned.timeline {
		t.Errorf("timeline differs:\n clean:\n%s poisoned:\n%s", clean.timeline, poisoned.timeline)
	}
}
