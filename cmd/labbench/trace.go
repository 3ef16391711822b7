package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// The traced pass records spans from here, around the layers' public
// calls, and samples the layers' public counters at each span edge.
// Spans stay in memory until the run ends.

// counters is one sample of everything a span edge can observe from
// outside: the Go allocator, and — once an experiment exists — its
// kernel, routers, controller and links.
type counters struct {
	Mallocs     uint64 `json:"mallocs"`
	AllocBytes  uint64 `json:"alloc_bytes"`
	Events      uint64 `json:"events"`
	VirtualNS   int64  `json:"virtual_ns"`
	UpdatesSent uint64 `json:"updates_sent"`
	UpdatesRecv uint64 `json:"updates_recv"`
	Keepalives  uint64 `json:"keepalives"`
	Recomputes  uint64 `json:"recomputes"`
	FlowMods    uint64 `json:"flowmods"`
	RouteEvents uint64 `json:"route_events"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Retransmits uint64 `json:"retransmits"`
}

// sub returns c - o field by field.
func (c counters) sub(o counters) counters {
	return counters{
		Mallocs:     c.Mallocs - o.Mallocs,
		AllocBytes:  c.AllocBytes - o.AllocBytes,
		Events:      c.Events - o.Events,
		VirtualNS:   c.VirtualNS - o.VirtualNS,
		UpdatesSent: c.UpdatesSent - o.UpdatesSent,
		UpdatesRecv: c.UpdatesRecv - o.UpdatesRecv,
		Keepalives:  c.Keepalives - o.Keepalives,
		Recomputes:  c.Recomputes - o.Recomputes,
		FlowMods:    c.FlowMods - o.FlowMods,
		RouteEvents: c.RouteEvents - o.RouteEvents,
		Delivered:   c.Delivered - o.Delivered,
		Dropped:     c.Dropped - o.Dropped,
		Retransmits: c.Retransmits - o.Retransmits,
	}
}

// add accumulates o into c.
func (c *counters) add(o counters) {
	c.Mallocs += o.Mallocs
	c.AllocBytes += o.AllocBytes
	c.Events += o.Events
	c.VirtualNS += o.VirtualNS
	c.UpdatesSent += o.UpdatesSent
	c.UpdatesRecv += o.UpdatesRecv
	c.Keepalives += o.Keepalives
	c.Recomputes += o.Recomputes
	c.FlowMods += o.FlowMods
	c.RouteEvents += o.RouteEvents
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.Retransmits += o.Retransmits
}

// span is one timed interval at a layer boundary. Op -1 is set-up;
// Parent 0 means the span has none.
type span struct {
	ID       int      `json:"id"`
	Parent   int      `json:"parent"`
	Workload string   `json:"workload"`
	Op       int      `json:"op"`
	Name     string   `json:"name"`
	StartNS  int64    `json:"start_ns"`
	EndNS    int64    `json:"end_ns"`
	Delta    counters `json:"delta"`

	from counters
}

// durMS is the span's wall duration in milliseconds.
func (s *span) durMS() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer holds one run's spans.
type tracer struct {
	workload string
	epoch    time.Time
	op       int
	spans    []*span
	stack    []*span
	exp      *experiment.Experiment
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// watch points the counter samples at e (nil detaches).
func (t *tracer) watch(e *experiment.Experiment) { t.exp = e }

// sample reads every counter visible right now.
func (t *tracer) sample() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{Mallocs: ms.Mallocs, AllocBytes: ms.TotalAlloc}
	e := t.exp
	if e == nil {
		return c
	}
	c.Events = e.K.Events()
	c.VirtualNS = sim.TimeToNS(e.K.Now())
	c.UpdatesSent, c.UpdatesRecv = e.UpdateTotals()
	for _, r := range e.Routers {
		c.Keepalives += r.Stats().KeepalivesSent
	}
	if e.Ctrl != nil {
		st := e.Ctrl.Stats()
		c.Recomputes, c.FlowMods, c.RouteEvents = st.Recomputes, st.FlowModsSent, st.RouteEvents
	}
	c.Delivered, c.Dropped = e.Net.Delivered, e.Net.Dropped
	for _, l := range e.Net.Links() {
		c.Retransmits += l.Retransmits
	}
	return c
}

// begin opens a span under the innermost open one. A nil tracer
// records nothing and returns nil.
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Workload: t.workload, Op: t.op, Name: name}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	s.from = t.sample()
	s.StartNS = time.Since(t.epoch).Nanoseconds()
	return s
}

// end closes s, which must be the innermost open span.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	s.Delta = t.sample().sub(s.from)
	if n := len(t.stack); n == 0 || t.stack[n-1] != s {
		panic("labbench: span " + s.Name + " closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// abandon drops every open span after a failed op, so the next op
// starts from a clean stack. The open spans keep EndNS 0 and are left
// out of every aggregate.
func (t *tracer) abandon() { t.stack = t.stack[:0] }

// write stores the spans as JSONL.
func (t *tracer) write(path string) error {
	var b strings.Builder
	for _, s := range t.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// spanTotal sums one span name over the timed ops.
type spanTotal struct {
	name  string
	n     int
	ms    float64
	delta counters
}

// totals aggregates closed spans of timed ops (op >= 0) by name.
func (t *tracer) totals() map[string]*spanTotal {
	out := map[string]*spanTotal{}
	for _, s := range t.spans {
		if s.Op < 0 || s.EndNS == 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanTotal{name: s.Name}
			out[s.Name] = st
		}
		st.n++
		st.ms += s.durMS()
		st.delta.add(s.Delta)
	}
	return out
}

// selfMS is a span's duration minus what its children cover.
func (t *tracer) selfMS() map[int]float64 {
	self := map[int]float64{}
	for _, s := range t.spans {
		if s.EndNS == 0 {
			continue
		}
		self[s.ID] += s.durMS()
		if s.Parent != 0 {
			self[s.Parent] -= s.durMS()
		}
	}
	return self
}

// attribution renders, per span name, its share of the ops' wall time
// and of their allocations, and returns the share of op wall that
// falls in named spans: everything but the op spans' self time.
func (t *tracer) attribution() (table string, attributedPct float64) {
	tot := t.totals()
	op := tot["op"]
	if op == nil || op.ms == 0 {
		return "", 0
	}
	self := t.selfMS()
	var unnamed float64
	for _, s := range t.spans {
		if s.Op >= 0 && s.EndNS != 0 && s.Name == "op" {
			unnamed += self[s.ID]
		}
	}
	var rows []*spanTotal
	for _, st := range tot {
		if st.name != "op" {
			rows = append(rows, st)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %6s %12s %8s %8s\n", "span", "n", "ms/op", "wall%", "alloc%")
	allocs := max(float64(op.delta.Mallocs), 1)
	for _, st := range rows {
		fmt.Fprintf(&b, "  %-28s %6d %12.3f %8.2f %8.2f\n", st.name, st.n,
			st.ms/float64(op.n), 100*st.ms/op.ms, 100*float64(st.delta.Mallocs)/allocs)
	}
	fmt.Fprintf(&b, "  %-28s %6d %12.3f %8.2f\n", "(op self: unattributed)", op.n,
		unnamed/float64(op.n), 100*unnamed/op.ms)
	return b.String(), 100 * (op.ms - unnamed) / op.ms
}
