package monitor

import (
	"errors"
	"io"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sim"
)

// retained is the oracle for the EventLog fold: the retain-everything
// log the fold replaced, kept by the test instead of the product. Its
// two views are naive scans over the slice.
type retained []bgp.TraceEvent

func (r retained) pathChanges(prefix netip.Prefix) []PathChange {
	render := func(rt *rib.Route) string {
		switch {
		case rt == nil:
			return ""
		case rt.Local:
			return "local"
		}
		return rt.Attrs.ASPath.String()
	}
	var out []PathChange
	for _, ev := range r {
		if ev.Kind == bgp.TraceBest && ev.Change != nil && ev.Change.Prefix == prefix {
			out = append(out, PathChange{Time: ev.Time, Router: ev.Router, Prefix: prefix,
				OldPath: render(ev.Change.Old), NewPath: render(ev.Change.New)})
		}
	}
	return out
}

func (r retained) explorationBetween(prefix netip.Prefix, start, end time.Time) map[idr.ASN]int {
	out := map[idr.ASN]int{}
	for _, ev := range r {
		if ev.Kind == bgp.TraceBest && ev.Change != nil && ev.Change.Prefix == prefix &&
			!ev.Time.Before(start) && (end.IsZero() || ev.Time.Before(end)) {
			out[ev.Router]++
		}
	}
	return out
}

var modelPrefixes = []netip.Prefix{
	netip.MustParsePrefix("10.0.1.0/24"),
	netip.MustParsePrefix("10.0.2.0/24"),
	netip.MustParsePrefix("10.0.0.0/16"),
}

// modelRoute decodes one side of a best-route transition: no route, a
// local route, a learned route with an empty path, or one of a few
// learned paths (one longer than a wire segment).
func modelRoute(prefix netip.Prefix, b byte) *rib.Route {
	switch b % 6 {
	case 0:
		return nil
	case 1:
		return &rib.Route{Prefix: prefix, Local: true}
	case 2:
		return &rib.Route{Prefix: prefix, Peer: "p"}
	case 3:
		path := wire.NewASPath(7, idr.ASN(b)) // and a tail that takes a second wire segment
		for asn := idr.ASN(1000); asn < 1300; asn++ {
			path = append(path, asn)
		}
		return &rib.Route{Prefix: prefix, Peer: "p", Attrs: wire.PathAttrs{ASPath: path}}
	}
	return &rib.Route{Prefix: prefix, Peer: "p", Attrs: wire.PathAttrs{ASPath: wire.NewASPath(idr.ASN(b%6), idr.ASN(b), 1)}}
}

// checkEventLogModel decodes ops four bytes at a time into a trace
// event stream — all four kinds, four routers, three prefixes, UPDATEs
// that announce or withdraw, nil changes, timestamps that repeat or
// advance — feeds it to an EventLog and the retained oracle, and
// requires every view to agree, the windowed count over every
// [start, end) pair of boundaries on, between and around the event
// times, zero end included. A second log that was not asked for paths is fed the same
// stream: its counts must be the same and its path views ErrNoPaths.
// Streams are cut at 64 events.
func checkEventLogModel(t *testing.T, ops []byte) {
	ops = ops[:min(len(ops), 4*64)] // the window check is quadratic in events
	l, bare, at := NewEventLog(), NewEventLog(), sim.Epoch
	l.RecordPaths()
	var want retained
	bounds := []time.Time{sim.Epoch.Add(-time.Second), sim.Epoch}
	for i := 0; i+3 < len(ops); i += 4 {
		kind, who, what, step := ops[i], ops[i+1], ops[i+2], ops[i+3]
		if d := time.Duration(step%3) * time.Second; d > 0 {
			at = at.Add(d)
			bounds = append(bounds, at.Add(-time.Second/2), at)
		}
		prefix := modelPrefixes[int(what)%len(modelPrefixes)]
		ev := bgp.TraceEvent{Time: at, Router: idr.ASN(1 + who%4), Kind: bgp.TraceKind(kind % 4), Peer: "p"}
		switch ev.Kind {
		case bgp.TraceSend, bgp.TraceRecv:
			ev.Update = &wire.Update{NLRI: []netip.Prefix{prefix}}
			if what/4%2 != 0 {
				ev.Update = &wire.Update{Withdrawn: []netip.Prefix{prefix}}
			}
		case bgp.TraceBest:
			if who/4%8 != 0 { // one in eight carries no change
				ev.Change = &rib.Change{Prefix: prefix, Old: modelRoute(prefix, what/4), New: modelRoute(prefix, kind/4)}
			}
		}
		l.Append(ev)
		bare.Append(ev)
		want = append(want, ev)
	}
	bounds = append(bounds, at.Add(time.Second))
	checkEventLogViews(t, l, bare, want, bounds)
}

// checkEventLogViews holds every view of l, which records paths, to the
// oracle over every pair of bounds, and bare, fed the same events
// without having been asked for paths, to the same counts and
// ErrNoPaths.
func checkEventLogViews(t *testing.T, l, bare *EventLog, want retained, bounds []time.Time) {
	t.Helper()
	for _, prefix := range append(modelPrefixes, netip.MustParsePrefix("192.0.2.0/24")) {
		got, err := l.PathChanges(prefix)
		if want := want.pathChanges(prefix); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("PathChanges(%v):\n got %+v, %v\nwant %+v", prefix, got, err, want)
		}
		if got, err := bare.PathChanges(prefix); got != nil || !errors.Is(err, ErrNoPaths) {
			t.Fatalf("PathChanges(%v) without paths = %+v, %v; want ErrNoPaths", prefix, got, err)
		}
		if err := bare.WriteTimeline(io.Discard, prefix); !errors.Is(err, ErrNoPaths) {
			t.Fatalf("WriteTimeline(%v) without paths: %v; want ErrNoPaths", prefix, err)
		}
		for _, start := range bounds {
			for _, end := range append(bounds, time.Time{}) {
				got, want := l.PathExplorationCountBetween(prefix, start, end), want.explorationBetween(prefix, start, end)
				if !maps.Equal(got, want) {
					t.Fatalf("PathExplorationCountBetween(%v, %v, %v) = %v, oracle %v",
						prefix, start.Sub(sim.Epoch), end.Sub(sim.Epoch), got, want)
				}
				if got := bare.PathExplorationCountBetween(prefix, start, end); !maps.Equal(got, want) {
					t.Fatalf("PathExplorationCountBetween(%v, %v, %v) without paths = %v, oracle %v",
						prefix, start.Sub(sim.Epoch), end.Sub(sim.Epoch), got, want)
				}
			}
			if got, want := l.PathExplorationCount(prefix, start), want.explorationBetween(prefix, start, time.Time{}); !maps.Equal(got, want) {
				t.Fatalf("PathExplorationCount(%v, %v) = %v, oracle %v", prefix, start.Sub(sim.Epoch), got, want)
			}
		}
	}
}

// FuzzEventLogModel holds the fold to the retained oracle on the seeds
// in tier-1 and on anything the fuzzer finds beyond them.
func FuzzEventLogModel(f *testing.F) {
	f.Add([]byte{})
	// One router explores three paths for one prefix at one instant.
	f.Add([]byte{2 | 4<<2, 9, 0 | 0<<2, 1, 2 | 5<<2, 9, 0 | 4<<2, 0, 2 | 0<<2, 9, 0 | 5<<2, 0})
	// Send, receive, state and best interleaved across routers and time.
	f.Add([]byte{0, 0, 0, 0, 1, 1, 4, 1, 3, 2, 0, 2, 2, 7, 9, 0, 2, 3, 1, 1, 0, 1, 8, 2})
	f.Fuzz(checkEventLogModel)
}

// TestEventLogModel runs the model check over random streams.
func TestEventLogModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 4*rng.Intn(48))
		rng.Read(ops)
		checkEventLogModel(t, ops)
	}
}

// TestEventLogBlockEdges takes the model across the log's storage
// blocks: three and a bit of them, timestamps that repeat in runs of
// five (so runs straddle every block edge), windows bounded on, just
// before and just after the records either side of each edge.
func TestEventLogBlockEdges(t *testing.T) {
	l, bare, at := NewEventLog(), NewEventLog(), sim.Epoch
	l.RecordPaths()
	var want retained
	var times []time.Time
	for i := 0; i < 3*bestBlock+7; i++ {
		if i%5 == 0 {
			at = at.Add(time.Second)
		}
		prefix := modelPrefixes[i%2]
		ev := bgp.TraceEvent{Time: at, Router: idr.ASN(1 + i%3), Kind: bgp.TraceBest,
			Change: &rib.Change{Prefix: prefix, Old: modelRoute(prefix, byte(i)), New: modelRoute(prefix, byte(i/6))}}
		l.Append(ev)
		bare.Append(ev)
		want = append(want, ev)
		times = append(times, at)
	}
	bounds := []time.Time{sim.Epoch, at.Add(time.Second)}
	for edge := bestBlock; edge < len(times); edge += bestBlock {
		for _, i := range []int{edge - 6, edge - 1, edge, edge + 5} {
			bounds = append(bounds, times[i].Add(-time.Second/2), times[i])
		}
	}
	checkEventLogViews(t, l, bare, want, bounds)
}

// TestBestChangeIsSlim pins the cost of one best-path change in a log
// that was not asked for paths: 48 pointer-free bytes (lab's
// TestLiveHeapFollowsState budgets with that figure), in blocks, so a
// long log is neither scanned by the garbage collector nor copied to grow.
func TestBestChangeIsSlim(t *testing.T) {
	if size := unsafe.Sizeof(bestChange{}); size != 48 {
		t.Fatalf("a bestChange is %d bytes, want 48", size)
	}
	l := NewEventLog()
	pfx := modelPrefixes[0]
	for i := 0; i < 4*bestBlock; i++ {
		l.Append(bgp.TraceEvent{Time: sim.Epoch, Router: 1, Kind: bgp.TraceBest,
			Change: &rib.Change{Prefix: pfx, New: modelRoute(pfx, 4)}})
	}
	if len(l.best) != 4 || cap(l.best[0]) != bestBlock || l.paths != nil {
		t.Fatalf("%d transitions sit in %d blocks, the first of %d, with paths %v", l.transitions(), len(l.best), cap(l.best[0]), l.paths != nil)
	}
}

// TestEventLogPinsNoMessages is the retention gate: 100 000 sends and
// receives of a ~1 KB UPDATE (100 MB of messages) must leave the log
// under 1 MB heavier once collected.
func TestEventLogPinsNoMessages(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	l := NewEventLog()
	before := heap()
	for i := 0; i < 100_000; i++ {
		nlri := make([]netip.Prefix, 32) // 32 B each
		for j := range nlri {
			nlri[j] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), byte(j)}), 32)
		}
		l.Append(bgp.TraceEvent{
			Time: sim.Epoch.Add(time.Duration(i) * time.Millisecond), Router: idr.ASN(1 + i%160),
			Kind: []bgp.TraceKind{bgp.TraceSend, bgp.TraceRecv}[i%2], Peer: "p",
			Update: &wire.Update{NLRI: nlri, Attrs: wire.PathAttrs{ASPath: wire.NewASPath(idr.ASN(i), 2, 1)}},
		})
	}
	grew := int64(heap()) - int64(before)
	if n := l.transitions(); n != 0 {
		t.Fatalf("the log holds %d transitions after UPDATEs only", n)
	}
	if grew > 1<<20 {
		t.Fatalf("live heap grew %d bytes over 100k appended UPDATEs; the log must not retain messages", grew)
	}
}
