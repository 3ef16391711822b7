package monitor

import (
	"cmp"
	"fmt"
	"io"
	"maps"
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
// visualization" read back: per-router activity counters and one slim
// record per best-route transition. It retains no event: an UPDATE's
// decoded wire.Message, the *rib.Change and the routes it points at are
// garbage as soon as Append returns, so the log's size follows the
// number of best-path changes, not the number of messages.
type EventLog struct {
	routers map[idr.ASN]*RouterSummary
	// best holds the transitions in Append order. Append is driven by
	// one kernel's clock, so that order is time order, which is what
	// lets the windowed counts seek instead of scan.
	best []bestChange
}

// bestChange is one TraceBest event reduced to what PathChanges
// renders. The AS paths are the (immutable, shared) slices the routes
// carried, copied out so that neither the rib.Route nor its attribute
// set stays reachable.
type bestChange struct {
	at                 time.Time
	router             idr.ASN
	oldLocal, newLocal bool
	prefix             netip.Prefix
	oldPath, newPath   wire.ASPath
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog {
	return &EventLog{routers: make(map[idr.ASN]*RouterSummary)}
}

// Append folds one event in (install as a bgp.Config.Trace hook,
// fan-in from all routers). Events must arrive in non-decreasing Time
// order — the order a sim.Kernel produces them in.
func (l *EventLog) Append(ev bgp.TraceEvent) {
	s, ok := l.routers[ev.Router]
	if !ok {
		s = &RouterSummary{Router: ev.Router, FirstActivity: ev.Time}
		l.routers[ev.Router] = s
	}
	s.LastActivity = ev.Time
	switch ev.Kind {
	case bgp.TraceSend:
		if ev.Msg != nil && ev.Msg.Type() == wire.MsgUpdate {
			s.UpdatesSent++
		}
	case bgp.TraceRecv:
		if ev.Msg != nil && ev.Msg.Type() == wire.MsgUpdate {
			s.UpdatesRecv++
		}
	case bgp.TraceBest:
		s.BestChanges++
		if c := ev.Change; c != nil {
			bc := bestChange{at: ev.Time, router: ev.Router, prefix: c.Prefix}
			if c.Old != nil {
				bc.oldPath, bc.oldLocal = c.Old.Attrs.ASPath, c.Old.Local
			}
			if c.New != nil {
				bc.newPath, bc.newLocal = c.New.Attrs.ASPath, c.New.Local
			}
			l.best = append(l.best, bc)
		}
	case bgp.TraceState:
		s.StateChanges++
	}
}

// RouterSummary aggregates per-router activity.
type RouterSummary struct {
	Router                      idr.ASN
	UpdatesSent, UpdatesRecv    int
	BestChanges                 int
	StateChanges                int
	FirstActivity, LastActivity time.Time
}

// Summarize returns the per-router summaries, sorted by ASN.
func (l *EventLog) Summarize() []RouterSummary {
	out := make([]RouterSummary, 0, len(l.routers))
	for _, s := range l.routers {
		out = append(out, *s)
	}
	slices.SortFunc(out, func(a, b RouterSummary) int { return cmp.Compare(a.Router, b.Router) })
	return out
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

// PathChanges extracts the best-route transitions for prefix in time
// order — the raw material of the route-change visualization and the
// path-exploration count of Oliveira et al. [13].
func (l *EventLog) PathChanges(prefix netip.Prefix) []PathChange {
	var out []PathChange
	for i := range l.best {
		bc := &l.best[i]
		if bc.prefix != prefix {
			continue
		}
		out = append(out, PathChange{
			Time: bc.at, Router: bc.router, Prefix: prefix,
			OldPath: renderPath(bc.oldPath, bc.oldLocal),
			NewPath: renderPath(bc.newPath, bc.newLocal),
		})
	}
	return out
}

// PathExplorationCount returns, per router, how many best-path
// transitions it went through for prefix at or after start (the path
// exploration metric). A path a router returns to counts again: the
// measure is transitions, not distinct paths.
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
	// The earliest record at or after start: equal timestamps are in.
	first, _ := slices.BinarySearchFunc(l.best, start, func(bc bestChange, t time.Time) int { return bc.at.Compare(t) })
	for i := first; i < len(l.best); i++ {
		bc := &l.best[i]
		if !end.IsZero() && !bc.at.Before(end) {
			break
		}
		if bc.prefix == prefix {
			out[bc.router]++
		}
	}
	return out
}

// WriteTimeline renders the route-change timeline for prefix as
// aligned text, one line per transition.
func (l *EventLog) WriteTimeline(w io.Writer, prefix netip.Prefix) error {
	for _, pc := range l.PathChanges(prefix) {
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
