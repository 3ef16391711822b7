package monitor

import (
	"errors"
	"maps"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sim"
)

func TestDetectorBasics(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDetector(k, 5*time.Second)
	if d.Converged() {
		t.Fatal("fresh detector should not be converged (no window elapsed)")
	}
	if err := k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !d.Converged() {
		t.Fatal("quiet detector should converge after its window")
	}
	d.Touch()
	if d.Converged() {
		t.Fatal("touch should restart the window")
	}
	if got := d.LastActivity(); !got.Equal(k.Now()) {
		t.Fatalf("last activity = %v, want the touch at %v", got, k.Now())
	}
}

// TestWindowFollowsMRAI pins the quiescence window: one and a half
// MRAIs, and never under 5 s. bgp's TestNoHoldDownOutlastsConvergence
// shows why it must follow the MRAI.
func TestWindowFollowsMRAI(t *testing.T) {
	for _, c := range []struct{ mrai, want time.Duration }{
		{time.Second, 5 * time.Second},
		{5 * time.Second, 7500 * time.Millisecond},
		{30 * time.Second, 45 * time.Second},
		{30 * time.Minute, 45 * time.Minute},
	} {
		if got := Window(c.mrai); got != c.want {
			t.Errorf("Window(%v) = %v, want %v", c.mrai, got, c.want)
		}
	}
}

func TestDetectorWaitConverged(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDetector(k, 2*time.Second)
	// Activity at 1s and 2s, then silence.
	k.AfterFunc(time.Second, d.Touch)
	k.AfterFunc(2*time.Second, d.Touch)
	instant, err := d.WaitConverged(k, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Epoch.Add(2 * time.Second); !instant.Equal(want) {
		t.Fatalf("convergence instant = %v, want %v", instant, want)
	}
}

func TestDetectorWaitTimeout(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDetector(k, 2*time.Second)
	// Perpetual activity every second: never converges.
	var tick func()
	tick = func() {
		d.Touch()
		k.AfterFunc(time.Second, tick)
	}
	k.Go(tick)
	if _, err := d.WaitConverged(k, 10*time.Second); err == nil {
		t.Fatal("expected timeout")
	}
}

func TestDetectorBGPActivityTrace(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDetector(k, time.Second)
	// touchesAfter reports whether ev, traced a second after the last
	// activity, moved it.
	touchesAfter := func(ev bgp.TraceEvent) bool {
		if err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		d.BGPActivityTrace(ev)
		return d.LastActivity().Equal(k.Now())
	}
	// Updates count.
	if !touchesAfter(bgp.TraceEvent{Kind: bgp.TraceSend, Update: &wire.Update{}}) {
		t.Fatal("update send should touch")
	}
	if !touchesAfter(bgp.TraceEvent{Kind: bgp.TraceRecv, Update: &wire.Update{}}) {
		t.Fatal("update recv should touch")
	}
	// State and best-path changes do not.
	for _, kind := range []bgp.TraceKind{bgp.TraceState, bgp.TraceBest} {
		if touchesAfter(bgp.TraceEvent{Kind: kind}) {
			t.Fatalf("a %v event touched the detector", kind)
		}
	}
}

func TestProbeEngine(t *testing.T) {
	k := sim.NewKernel(1)
	e := NewProbeEngine(k)
	src, dst := netip.MustParseAddr("10.0.1.10"), netip.MustParseAddr("10.0.2.10")
	if err := e.Send(1, 2, src, dst); err == nil {
		t.Fatal("send without registered source should error")
	}
	var inFlight []frames.Probe
	e.RegisterSource(1, func(p frames.Probe) error {
		inFlight = append(inFlight, p)
		return nil
	})
	for i := 0; i < 4; i++ {
		if err := e.Send(1, 2, src, dst); err != nil {
			t.Fatal(err)
		}
	}
	// Deliver 3 of 4.
	for _, p := range inFlight[:3] {
		e.OnDelivered(p)
	}
	// Duplicate delivery is ignored.
	e.OnDelivered(inFlight[0])
	// Unknown probe is ignored.
	e.OnDelivered(frames.Probe{ID: 999})
	stats := e.Stats()[FlowKey{Src: 1, Dst: 2}]
	if stats.Sent != 4 || stats.Delivered != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if loss := stats.Loss(); loss < 0.24 || loss > 0.26 {
		t.Fatalf("loss = %v, want 0.25", loss)
	}
	total := e.TotalLoss()
	if total.Sent != 4 || total.Delivered != 3 {
		t.Fatalf("total = %+v", total)
	}
	var sb strings.Builder
	if err := e.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "AS1 -> AS2") {
		t.Fatalf("report = %q", sb.String())
	}
	if (ProbeStats{}).Loss() != 0 {
		t.Fatal("zero-sent loss should be 0")
	}
}

// fabricatedLog is a small hand-made log, asked for paths or not.
func fabricatedLog(paths bool) *EventLog {
	l := NewEventLog()
	if paths {
		l.RecordPaths()
	}
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	mk := func(at time.Duration, router idr.ASN, kind bgp.TraceKind, u *wire.Update, ch *rib.Change) bgp.TraceEvent {
		return bgp.TraceEvent{Time: sim.Epoch.Add(at), Router: router, Kind: kind, Update: u, Change: ch}
	}
	routeVia := func(path ...idr.ASN) *rib.Route {
		return &rib.Route{Prefix: pfx, Peer: "p", Attrs: wire.PathAttrs{ASPath: wire.NewASPath(path...)}}
	}
	l.Append(mk(1*time.Second, 2, bgp.TraceRecv, &wire.Update{NLRI: []netip.Prefix{pfx}}, nil))
	l.Append(mk(1*time.Second, 2, bgp.TraceBest, nil, &rib.Change{Prefix: pfx, New: routeVia(1)}))
	l.Append(mk(2*time.Second, 2, bgp.TraceSend, &wire.Update{NLRI: []netip.Prefix{pfx}}, nil))
	l.Append(mk(3*time.Second, 2, bgp.TraceBest, nil, &rib.Change{Prefix: pfx, Old: routeVia(1), New: routeVia(3, 1)}))
	l.Append(mk(4*time.Second, 2, bgp.TraceBest, nil, &rib.Change{Prefix: pfx, Old: routeVia(3, 1)}))
	l.Append(mk(5*time.Second, 3, bgp.TraceState, nil, nil))
	return l
}

func TestEventLogPathChanges(t *testing.T) {
	l, bare := fabricatedLog(true), fabricatedLog(false)
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	changes, err := l.PathChanges(pfx)
	if err != nil || len(changes) != 3 {
		t.Fatalf("changes = %d, %v", len(changes), err)
	}
	if changes[0].OldPath != "" || changes[0].NewPath != "1" {
		t.Fatalf("first change = %+v", changes[0])
	}
	if changes[2].NewPath != "" {
		t.Fatalf("last change should be a loss: %+v", changes[2])
	}
	counts := l.PathExplorationCount(pfx, sim.Epoch.Add(2*time.Second))
	if counts[2] != 2 {
		t.Fatalf("exploration count = %v", counts)
	}
	// Nothing for an unknown prefix.
	if got, err := l.PathChanges(netip.MustParsePrefix("10.9.9.0/24")); err != nil || len(got) != 0 {
		t.Fatalf("unknown prefix should have no changes: %v, %v", got, err)
	}
	// A log that was not asked for paths says so instead of rendering
	// every side as "(none)", and counts exactly the same.
	if got, err := bare.PathChanges(pfx); got != nil || !errors.Is(err, ErrNoPaths) {
		t.Fatalf("PathChanges without paths = %v, %v; want ErrNoPaths", got, err)
	}
	if got := bare.PathExplorationCount(pfx, sim.Epoch.Add(2*time.Second)); !maps.Equal(got, counts) {
		t.Fatalf("exploration count without paths = %v, with %v", got, counts)
	}
	// Asking twice is harmless; asking once transitions went by
	// unrecorded is a bug in the caller.
	l.RecordPaths()
	defer func() {
		if recover() == nil {
			t.Fatal("RecordPaths on a log that already holds transitions should panic")
		}
	}()
	bare.RecordPaths()
}

// TestPathExplorationCountBetween pins the windowed form backing the
// per-epoch workload instrumentation: [start, end) half-open windows
// partition the log, and a zero end leaves the window open.
func TestPathExplorationCountBetween(t *testing.T) {
	l := fabricatedLog(false)
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	// Changes sit at 1s, 3s and 4s. A window [1s, 4s) takes the first
	// two; [4s, zero) takes the last.
	first := l.PathExplorationCountBetween(pfx, sim.Epoch.Add(time.Second), sim.Epoch.Add(4*time.Second))
	if first[2] != 2 {
		t.Fatalf("[1s,4s) count = %v, want 2 for router 2", first)
	}
	rest := l.PathExplorationCountBetween(pfx, sim.Epoch.Add(4*time.Second), time.Time{})
	if rest[2] != 1 {
		t.Fatalf("[4s,∞) count = %v, want 1 for router 2", rest)
	}
	// Windows partition: the sum over contiguous windows equals the
	// unwindowed count.
	total := l.PathExplorationCount(pfx, sim.Epoch)
	if first[2]+rest[2] != total[2] {
		t.Fatalf("window sum %d != total %d", first[2]+rest[2], total[2])
	}
	if got := l.PathExplorationCountBetween(pfx, sim.Epoch.Add(10*time.Second), time.Time{}); len(got) != 0 {
		t.Fatalf("empty window should count nothing, got %v", got)
	}
}

func TestEventLogTimeline(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	var sb strings.Builder
	if err := fabricatedLog(true).WriteTimeline(&sb, pfx); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "[1] -> [3 1]") || !strings.Contains(out, "(none)") {
		t.Fatalf("timeline = %q", out)
	}
	sb.Reset()
	if err := fabricatedLog(false).WriteTimeline(&sb, pfx); !errors.Is(err, ErrNoPaths) || sb.Len() != 0 {
		t.Fatalf("timeline without paths: %v, wrote %q; want ErrNoPaths and nothing", err, sb.String())
	}
}

func TestWriteForwardingDOT(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	providers := map[idr.ASN]RouteProvider{
		1: func(netip.Prefix) (wire.ASPath, bool) { return nil, true }, // origin
		2: func(netip.Prefix) (wire.ASPath, bool) { return wire.NewASPath(1), true },
		3: func(netip.Prefix) (wire.ASPath, bool) { return wire.NewASPath(2, 1), true },
		4: func(netip.Prefix) (wire.ASPath, bool) { return nil, false }, // no route
	}
	var sb strings.Builder
	if err := WriteForwardingDOT(&sb, pfx, providers); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"AS2" -> "AS1"`, `"AS3" -> "AS2"`, "doublecircle", "dashed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}
