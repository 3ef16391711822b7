// Package monitor implements the framework's measurement and analysis
// tools (paper §3): convergence detection ("the framework detects when
// the network has converged"), data-plane loss measurement via probe
// traffic (the ping/video-app equivalent), log analysis over router
// trace events, and route-change visualization.
package monitor

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sim"
)

// ErrTimeout marks a virtual-clock deadline expiring before the waited
// condition held (convergence, session establishment). Waiters wrap it
// so callers can classify timeout-class failures with errors.Is — the
// failure-tolerant sweep runner files these as timed-out cells.
var ErrTimeout = errors.New("timed out")

// Detector detects routing convergence by quiescence: the network is
// considered converged once no routing activity (updates sent or
// received, controller recomputations) has occurred for a settle
// window. The convergence instant is the time of the last activity.
type Detector struct {
	clock  sim.Clock
	settle time.Duration
	last   time.Time
}

// DefaultSettle is the default quiescence window.
const DefaultSettle = 5 * time.Second

// NewDetector builds a detector; settle <= 0 selects DefaultSettle.
func NewDetector(clock sim.Clock, settle time.Duration) *Detector {
	if settle <= 0 {
		settle = DefaultSettle
	}
	return &Detector{clock: clock, settle: settle, last: clock.Now()}
}

// Touch records routing activity now. Touching the detector when an
// event is triggered starts the measurement of its convergence there.
func (d *Detector) Touch() {
	d.last = d.clock.Now()
}

// LastActivity returns the time of the most recent activity.
func (d *Detector) LastActivity() time.Time { return d.last }

// SetLastActivity sets the instant of the last activity. Callers touch
// the detector outside any command a run records, so a restore sets
// what the run it rebuilds left here.
func (d *Detector) SetLastActivity(t time.Time) { d.last = t }

// Converged reports whether the settle window has elapsed since the
// last activity.
func (d *Detector) Converged() bool {
	return d.clock.Now().Sub(d.last) >= d.settle
}

// BGPActivityTrace adapts the detector to a bgp.Router trace hook:
// UPDATE traffic counts as activity (state and best-path changes do
// not).
func (d *Detector) BGPActivityTrace(ev bgp.TraceEvent) {
	if ev.Update != nil {
		d.Touch()
	}
}

// WaitConverged advances the kernel until the detector reports
// convergence or until timeout elapses. It returns the convergence
// instant (the last routing activity) or an error on timeout.
func (d *Detector) WaitConverged(k *sim.Kernel, timeout time.Duration) (time.Time, error) {
	deadline := k.Now().Add(timeout)
	for {
		if d.Converged() {
			return d.last, nil
		}
		step := d.settle - k.Now().Sub(d.last)
		if step <= 0 {
			step = time.Millisecond
		}
		if k.Now().Add(step).After(deadline) {
			if err := k.RunUntil(deadline); err != nil {
				return time.Time{}, err
			}
			if d.Converged() {
				return d.last, nil
			}
			return time.Time{}, fmt.Errorf("monitor: no convergence within %v (last activity %v): %w", timeout, d.last.Sub(sim.Epoch), ErrTimeout)
		}
		if err := k.RunFor(step); err != nil {
			return time.Time{}, err
		}
	}
}

// ProbeStats aggregates data-plane probe outcomes over an observation
// interval.
type ProbeStats struct {
	Sent, Delivered uint64
}

// Loss returns the loss fraction in [0, 1] (0 when nothing was sent).
func (s ProbeStats) Loss() float64 {
	if s.Sent == 0 {
		return 0
	}
	return 1 - float64(s.Delivered)/float64(s.Sent)
}

// FlowKey identifies a probe flow between two ASes.
type FlowKey struct {
	Src, Dst idr.ASN
}

// compareFlow orders flows by (Src, Dst).
func compareFlow(a, b FlowKey) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// ProbeEngine injects probes on a schedule and matches deliveries,
// yielding per-flow loss statistics — the framework's "loss
// measurement" and "stable connectivity between all hosts" check.
type ProbeEngine struct {
	clock  sim.Clock
	nextID uint64
	// inject sends a probe from the source AS into the network.
	inject map[idr.ASN]func(frames.Probe) error

	pending map[uint64]FlowKey
	stats   map[FlowKey]*ProbeStats
}

// NewProbeEngine builds an engine on the clock.
func NewProbeEngine(clock sim.Clock) *ProbeEngine {
	return &ProbeEngine{
		clock:   clock,
		inject:  make(map[idr.ASN]func(frames.Probe) error),
		pending: make(map[uint64]FlowKey),
		stats:   make(map[FlowKey]*ProbeStats),
	}
}

// RegisterSource installs the injection function for probes sourced at
// an AS (wired by the experiment to the node's forwarding entry point).
func (e *ProbeEngine) RegisterSource(asn idr.ASN, inject func(frames.Probe) error) {
	e.inject[asn] = inject
}

// OnDelivered must be called (by node wiring) whenever a probe reaches
// a node originating the destination prefix.
func (e *ProbeEngine) OnDelivered(p frames.Probe) {
	key, ok := e.pending[p.ID]
	if !ok {
		return
	}
	delete(e.pending, p.ID)
	e.stats[key].Delivered++
}

// Send injects one probe from src toward dst's address.
func (e *ProbeEngine) Send(src, dst idr.ASN, srcAddr, dstAddr netip.Addr) error {
	inject, ok := e.inject[src]
	if !ok {
		return fmt.Errorf("monitor: no probe source registered for %v", src)
	}
	e.nextID++
	id := e.nextID
	key := FlowKey{Src: src, Dst: dst}
	if e.stats[key] == nil {
		e.stats[key] = &ProbeStats{}
	}
	e.stats[key].Sent++
	e.pending[id] = key
	return inject(frames.Probe{ID: id, Src: srcAddr, Dst: dstAddr, TTL: frames.DefaultTTL})
}

// Stats returns the accumulated per-flow statistics.
func (e *ProbeEngine) Stats() map[FlowKey]ProbeStats {
	out := make(map[FlowKey]ProbeStats, len(e.stats))
	for k, v := range e.stats {
		out[k] = *v
	}
	return out
}

// TotalLoss aggregates loss across all flows.
func (e *ProbeEngine) TotalLoss() ProbeStats {
	var total ProbeStats
	for _, v := range e.stats {
		total.Sent += v.Sent
		total.Delivered += v.Delivered
	}
	return total
}

// InFlight returns the flow of every probe sent and not yet
// delivered, by probe id.
func (e *ProbeEngine) InFlight() map[uint64]FlowKey { return maps.Clone(e.pending) }

// SetCounters replaces the per-flow counters and the probes in flight
// with stats and inFlight, as Stats and InFlight report them. Callers
// reset the counters outside any command a run records (ResetStats),
// so a restore sets what the run it rebuilds left here.
func (e *ProbeEngine) SetCounters(stats map[FlowKey]ProbeStats, inFlight map[uint64]FlowKey) {
	e.stats = make(map[FlowKey]*ProbeStats, len(stats))
	//lint:maporder each entry is copied to its own key
	for k, v := range stats {
		e.stats[k] = &v
	}
	e.pending = make(map[uint64]FlowKey, len(inFlight))
	//lint:maporder each probe is filed under its own flow
	for id, k := range inFlight {
		if e.stats[k] == nil {
			e.stats[k] = &ProbeStats{}
		}
		e.pending[id] = k
	}
}

// ResetStats clears accumulated statistics and forgets in-flight
// probes.
func (e *ProbeEngine) ResetStats() {
	e.pending = make(map[uint64]FlowKey)
	e.stats = make(map[FlowKey]*ProbeStats)
}

// WriteReport renders per-flow loss sorted by flow.
func (e *ProbeEngine) WriteReport(w io.Writer) error {
	for _, k := range idr.SortedKeysFunc(e.stats, compareFlow) {
		s := e.stats[k]
		if _, err := fmt.Fprintf(w, "%v -> %v: sent=%d delivered=%d loss=%.1f%%\n",
			k.Src, k.Dst, s.Sent, s.Delivered, 100*s.Loss()); err != nil {
			return err
		}
	}
	return nil
}
