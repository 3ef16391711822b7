package monitor

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/netip"
	"slices"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sim"
)

// EventLog folds router trace events, as they happen, into what the
// framework's "automatic log file analysis" and "route change
// visualization" read back: one slim record per best-route transition.
// Message and state counts are the routers' own (bgp.Router.Stats). It
// retains no event: the *rib.Change and the routes it points at are the
// router's again as soon as Append returns, so the log's size follows
// the number of best-path changes, not the number of messages — and,
// unless RecordPaths asked for them, not the paths explored either.
type EventLog struct {
	// best holds the transitions in Append order, in blocks of
	// bestBlock so that growth never copies the log. Append is driven
	// by one kernel's clock, so that order is time order, which is what
	// lets the windowed counts seek instead of scan.
	best [][]bestChange
	// paths, non-nil once RecordPaths has been called, holds the AS
	// paths of transition i at index i.
	paths []pathPair
}

// bestBlock is how many transitions one block of EventLog.best holds:
// 12 KB, small enough that a clique run's few hundred transitions do
// not pay for a large first block.
const bestBlock = 256

// bestChange is one TraceBest event reduced to what the counts read:
// when, where, which prefix, and whether either side was the router's
// own origination. 48 bytes, no pointers.
type bestChange struct {
	atNS               int64 // since sim.Epoch
	router             idr.ASN
	oldLocal, newLocal bool
	prefix             netip.Prefix
}

// pathPair is the two AS paths of one transition: the (immutable,
// shared) slices the routes carried, copied out so that neither the
// rib.Route nor its attribute set stays reachable.
type pathPair struct{ old, new wire.ASPath }

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// RecordPaths makes the log keep the AS paths of every best-route
// transition, which PathChanges and WriteTimeline render. A path
// exploration's paths are most of what a large run would retain, so
// they are kept only for a consumer that asked: call it before the
// first event is appended (before the experiment starts). It panics on
// a log that already holds transitions, whose paths are gone.
func (l *EventLog) RecordPaths() {
	if l.paths != nil {
		return
	}
	if len(l.best) > 0 {
		panic("monitor: RecordPaths on a log that already holds transitions")
	}
	l.paths = []pathPair{}
}

// transitions returns how many best-route transitions the log holds.
func (l *EventLog) transitions() int {
	if len(l.best) == 0 {
		return 0
	}
	return (len(l.best)-1)*bestBlock + len(l.best[len(l.best)-1])
}

// transition returns record i in Append order.
func (l *EventLog) transition(i int) *bestChange {
	return &l.best[i/bestBlock][i%bestBlock]
}

// seek returns the index of the earliest transition at or after ns
// (equal timestamps are in), transitions() when there is none.
func (l *EventLog) seek(ns int64) int {
	// Every record of a block that ends before ns is before ns.
	b, _ := slices.BinarySearchFunc(l.best, ns, func(block []bestChange, ns int64) int {
		return cmp.Compare(block[len(block)-1].atNS, ns)
	})
	if b == len(l.best) {
		return l.transitions()
	}
	i, _ := slices.BinarySearchFunc(l.best[b], ns, func(bc bestChange, ns int64) int {
		return cmp.Compare(bc.atNS, ns)
	})
	return b*bestBlock + i
}

// Append folds one event in (install as a bgp.Config.Trace hook,
// fan-in from all routers): a best-route transition is recorded, every
// other kind of event passes by. Events must arrive in non-decreasing
// Time order — the order a sim.Kernel produces them in. What ev points
// at is only read, and not after Append returns.
func (l *EventLog) Append(ev bgp.TraceEvent) {
	c := ev.Change
	if ev.Kind != bgp.TraceBest || c == nil {
		return
	}
	bc := bestChange{atNS: sim.TimeToNS(ev.Time), router: ev.Router, prefix: c.Prefix}
	var pp pathPair
	if c.Old != nil {
		pp.old, bc.oldLocal = c.Old.Attrs.ASPath, c.Old.Local
	}
	if c.New != nil {
		pp.new, bc.newLocal = c.New.Attrs.ASPath, c.New.Local
	}
	if n := len(l.best); n == 0 || len(l.best[n-1]) == bestBlock {
		l.best = append(l.best, make([]bestChange, 0, bestBlock))
	}
	last := &l.best[len(l.best)-1]
	*last = append(*last, bc)
	if l.paths != nil {
		l.paths = append(l.paths, pp)
	}
}

// PathChange is one best-route transition at one router.
type PathChange struct {
	Time    time.Time
	Router  idr.ASN
	Prefix  netip.Prefix
	OldPath string // "" = none
	NewPath string // "" = none
}

// renderPath is a PathChange's text for one side of a transition.
func renderPath(path wire.ASPath, local bool) string {
	if local {
		return "local"
	}
	return path.String()
}

// ErrNoPaths is what PathChanges and WriteTimeline return on a log that
// was not asked to keep paths (see RecordPaths).
var ErrNoPaths = errors.New("monitor: the event log was not asked to record paths")

// PathChanges extracts the best-route transitions for prefix in time
// order — the raw material of the route-change visualization. The log
// must have been asked for paths (RecordPaths); ErrNoPaths otherwise.
func (l *EventLog) PathChanges(prefix netip.Prefix) ([]PathChange, error) {
	if l.paths == nil {
		return nil, ErrNoPaths
	}
	var out []PathChange
	for i, n := 0, l.transitions(); i < n; i++ {
		bc := l.transition(i)
		if bc.prefix != prefix {
			continue
		}
		out = append(out, PathChange{
			Time: sim.TimeFromNS(bc.atNS), Router: bc.router, Prefix: prefix,
			OldPath: renderPath(l.paths[i].old, bc.oldLocal),
			NewPath: renderPath(l.paths[i].new, bc.newLocal),
		})
	}
	return out, nil
}

// PathExplorationCount returns, per router, how many best-path
// transitions it went through for prefix at or after start (the path
// exploration metric of Oliveira et al. [13]). A path a router returns
// to counts again: the measure is transitions, not distinct paths.
func (l *EventLog) PathExplorationCount(prefix netip.Prefix, start time.Time) map[idr.ASN]int {
	return l.PathExplorationCountBetween(prefix, start, time.Time{})
}

// PathExplorationCountBetween is the windowed form of
// PathExplorationCount: it counts best-path transitions for prefix in
// [start, end). A zero end leaves the window open-ended — the
// per-epoch workload instrumentation windows each scheduled event's
// exploration between its trigger and the next. It seeks to start and
// walks the window only.
func (l *EventLog) PathExplorationCountBetween(prefix netip.Prefix, start, end time.Time) map[idr.ASN]int {
	out := make(map[idr.ASN]int)
	endNS := int64(math.MaxInt64)
	if !end.IsZero() {
		endNS = sim.TimeToNS(end)
	}
	for i, n := l.seek(sim.TimeToNS(start)), l.transitions(); i < n; i++ {
		bc := l.transition(i)
		if bc.atNS >= endNS {
			break
		}
		if bc.prefix == prefix {
			out[bc.router]++
		}
	}
	return out
}

// WriteTimeline renders the route-change timeline for prefix as
// aligned text, one line per transition. Like PathChanges it needs a
// log that was asked for paths.
func (l *EventLog) WriteTimeline(w io.Writer, prefix netip.Prefix) error {
	changes, err := l.PathChanges(prefix)
	if err != nil {
		return err
	}
	for _, pc := range changes {
		old, new_ := pc.OldPath, pc.NewPath
		if old == "" {
			old = "(none)"
		}
		if new_ == "" {
			new_ = "(none)"
		}
		if _, err := fmt.Fprintf(w, "%10.3fs %8s %v: [%s] -> [%s]\n",
			pc.Time.Sub(sim.Epoch).Seconds(), pc.Router, prefix, old, new_); err != nil {
			return err
		}
	}
	return nil
}

// RouteProvider exposes the current best path for a prefix (both
// bgp.Router tables and the experiment's cluster view implement this
// shape via closures).
type RouteProvider func(prefix netip.Prefix) (asPath wire.ASPath, ok bool)

// WriteForwardingDOT renders the current forwarding tree toward prefix
// as a DOT digraph: an edge from each AS to the first AS on its best
// path. providers maps each AS to its route view.
func WriteForwardingDOT(w io.Writer, prefix netip.Prefix, providers map[idr.ASN]RouteProvider) error {
	asns := slices.Sorted(maps.Keys(providers))
	if _, err := fmt.Fprintf(w, "digraph %q {\n", "routes_"+prefix.String()); err != nil {
		return err
	}
	for _, asn := range asns {
		path, ok := providers[asn](prefix)
		var err error
		if !ok {
			_, err = fmt.Fprintf(w, "  %q [style=dashed]; // no route\n", asn.String())
		} else if first, has := path.First(); has {
			_, err = fmt.Fprintf(w, "  %q -> %q;\n", asn.String(), first.String())
		} else {
			_, err = fmt.Fprintf(w, "  %q [shape=doublecircle]; // origin\n", asn.String())
		}
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
