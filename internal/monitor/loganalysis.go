package monitor

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sim"
)

// EventLog accumulates router trace events for the framework's
// "automatic log file analysis" and "route change visualization".
type EventLog struct {
	events []bgp.TraceEvent
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Append records one event (install as a bgp.Config.Trace hook,
// fan-in from all routers).
func (l *EventLog) Append(ev bgp.TraceEvent) { l.events = append(l.events, ev) }

// Len returns the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Events returns the raw event slice.
func (l *EventLog) Events() []bgp.TraceEvent { return l.events }

// RouterSummary aggregates per-router activity.
type RouterSummary struct {
	Router                      idr.ASN
	UpdatesSent, UpdatesRecv    int
	BestChanges                 int
	StateChanges                int
	FirstActivity, LastActivity time.Time
}

// Summarize computes per-router summaries, sorted by ASN.
func (l *EventLog) Summarize() []RouterSummary {
	byRouter := make(map[idr.ASN]*RouterSummary)
	get := func(asn idr.ASN) *RouterSummary {
		s, ok := byRouter[asn]
		if !ok {
			s = &RouterSummary{Router: asn}
			byRouter[asn] = s
		}
		return s
	}
	for _, ev := range l.events {
		s := get(ev.Router)
		if s.FirstActivity.IsZero() || ev.Time.Before(s.FirstActivity) {
			s.FirstActivity = ev.Time
		}
		if ev.Time.After(s.LastActivity) {
			s.LastActivity = ev.Time
		}
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
		case bgp.TraceState:
			s.StateChanges++
		}
	}
	out := make([]RouterSummary, 0, len(byRouter))
	for _, s := range byRouter {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Router < out[j].Router })
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

// isBestChange reports whether ev is a best-route transition for
// prefix.
func isBestChange(ev bgp.TraceEvent, prefix netip.Prefix) bool {
	return ev.Kind == bgp.TraceBest && ev.Change != nil && ev.Change.Prefix == prefix
}

// PathChanges extracts the best-route transitions for prefix in time
// order — the raw material of the route-change visualization and the
// path-exploration count of Oliveira et al. [13].
func (l *EventLog) PathChanges(prefix netip.Prefix) []PathChange {
	var out []PathChange
	for _, ev := range l.events {
		if !isBestChange(ev, prefix) {
			continue
		}
		pc := PathChange{Time: ev.Time, Router: ev.Router, Prefix: prefix}
		if ev.Change.Old != nil {
			pc.OldPath = ev.Change.Old.Attrs.ASPath.String()
			if ev.Change.Old.Local {
				pc.OldPath = "local"
			}
		}
		if ev.Change.New != nil {
			pc.NewPath = ev.Change.New.Attrs.ASPath.String()
			if ev.Change.New.Local {
				pc.NewPath = "local"
			}
		}
		out = append(out, pc)
	}
	return out
}

// PathExplorationCount returns, per router, how many distinct best
// paths it tried for prefix after start (the path exploration metric).
func (l *EventLog) PathExplorationCount(prefix netip.Prefix, start time.Time) map[idr.ASN]int {
	return l.PathExplorationCountBetween(prefix, start, time.Time{})
}

// PathExplorationCountBetween is the windowed form of
// PathExplorationCount: it counts best-path transitions for prefix in
// [start, end). A zero end leaves the window open-ended — the
// per-epoch workload instrumentation windows each scheduled event's
// exploration between its trigger and the next.
func (l *EventLog) PathExplorationCountBetween(prefix netip.Prefix, start, end time.Time) map[idr.ASN]int {
	out := make(map[idr.ASN]int)
	for _, ev := range l.events {
		if !isBestChange(ev, prefix) || ev.Time.Before(start) {
			continue
		}
		if !end.IsZero() && !ev.Time.Before(end) {
			continue
		}
		out[ev.Router]++
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
	asns := make([]idr.ASN, 0, len(providers))
	for a := range providers {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	if _, err := fmt.Fprintf(w, "digraph %q {\n", "routes_"+prefix.String()); err != nil {
		return err
	}
	for _, asn := range asns {
		path, ok := providers[asn](prefix)
		if !ok {
			fmt.Fprintf(w, "  %q [style=dashed]; // no route\n", asn.String())
			continue
		}
		if first, has := path.First(); has {
			fmt.Fprintf(w, "  %q -> %q;\n", asn.String(), first.String())
		} else {
			fmt.Fprintf(w, "  %q [shape=doublecircle]; // origin\n", asn.String())
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
