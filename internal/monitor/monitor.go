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
// received, controller recomputations) has occurred for a window. The
// convergence instant is the time of the last activity.
type Detector struct {
	clock  sim.Clock
	window time.Duration
	last   time.Time
}

// minWindow is the floor of Window.
const minWindow = 5 * time.Second

// Window is the quiescence window of routers whose resolved MRAI is
// mrai: max(1.5·MRAI, 5 s). It does two jobs. It outlasts the largest
// legitimate gap between update batches, the jittered MRAI, so that a
// lull between exploration rounds (Labovitz et al., SIGCOMM 2000) does
// not read as convergence; the half MRAI on top leaves margin for
// chained propagation delays. And since every hold-down starts at an
// UPDATE sent and lasts at most one MRAI, it lets every session's
// hold-down lapse before the next trigger, so each measurement starts
// from a network that paces nothing (DECISIONS.md, "The quiescence
// window is the MRAI's").
func Window(mrai time.Duration) time.Duration {
	return max(mrai+mrai/2, minWindow)
}

// NewDetector builds a detector that waits window (see Window) for
// quiescence.
func NewDetector(clock sim.Clock, window time.Duration) *Detector {
	return &Detector{clock: clock, window: window, last: clock.Now()}
}

// Touch records routing activity now. Touching the detector when an
// event is triggered starts the measurement of its convergence there.
func (d *Detector) Touch() {
	d.last = d.clock.Now()
}

// LastActivity returns the time of the most recent activity.
func (d *Detector) LastActivity() time.Time { return d.last }

// Converged reports whether the window has elapsed since the last
// activity.
func (d *Detector) Converged() bool {
	return d.clock.Now().Sub(d.last) >= d.window
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
		step := d.window - k.Now().Sub(d.last)
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
