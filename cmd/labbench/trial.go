package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/lab"
	"repro/internal/stats"
	"repro/internal/topology"
)

// trialWorkload runs one withdrawal trial per op: lab.Trial.Run
// untraced, the same sequence of public calls traced.
type trialWorkload struct {
	base lab.Trial
	seed int64
	// traced keeps the traced ops' results for the numbers that come
	// from lab.Result rather than from a span.
	traced []lab.Result
}

func (w *trialWorkload) trial(i int) lab.Trial {
	t := w.base
	t.Seed = w.seed + int64(i)
	return t
}

func (w *trialWorkload) setUp(tr *tracer) error {
	_, err := w.op(-1)
	return err
}

func (w *trialWorkload) op(i int) ([]byte, error) {
	t := w.trial(i)
	res, err := t.Run()
	if err != nil {
		return nil, err
	}
	return trialRecord(t, res)
}

func (w *trialWorkload) tracedOp(i int, tr *tracer) ([]byte, error) {
	t := w.trial(i)
	res, err := tracedRun(t, tr)
	if err != nil {
		return nil, err
	}
	w.traced = append(w.traced, res)
	return trialRecord(t, res)
}

func (w *trialWorkload) finish(tr *tracer, m *metricSet) error {
	if tr == nil || len(w.traced) == 0 {
		return nil
	}
	var sent, changes float64
	var conv []float64
	for _, res := range w.traced {
		sent += float64(res.UpdatesSent)
		changes += float64(res.BestPathChanges)
		conv = append(conv, res.Convergence.Seconds())
	}
	m.set("rib.best_path_changes_per_op", changes/float64(len(w.traced)))
	if changes > 0 {
		m.set("bgp.updates_per_best_change", sent/changes)
	}
	m.set("monitor.convergence_virtual_s_p50", stats.Median(conv))
	return nil
}

func (w *trialWorkload) close() error { return nil }

// trialRecord checks one withdrawal's result and returns its
// canonical bytes: the whole lab.Result, which is what sim_digest
// hashes and what the traced pass must reproduce field for field.
func trialRecord(t lab.Trial, res lab.Result) ([]byte, error) {
	switch {
	case res.ReachableAfter:
		return nil, fmt.Errorf("seed %d: origin still reachable after its withdrawal", t.Seed)
	case res.Convergence <= 0:
		return nil, fmt.Errorf("seed %d: convergence %v, want > 0", t.Seed, res.Convergence)
	case res.UpdatesSent == 0:
		return nil, fmt.Errorf("seed %d: no UPDATE sent in the measurement phase", t.Seed)
	case t.Placement.K == 0 && res.Recomputes != 0:
		return nil, fmt.Errorf("seed %d: %d controller recomputes in a pure-BGP trial", t.Seed, res.Recomputes)
	case t.Placement.K > 0 && res.Recomputes == 0:
		return nil, fmt.Errorf("seed %d: no controller recompute with K=%d", t.Seed, t.Placement.K)
	}
	return json.Marshal(res)
}

// The documented lab.Trial defaults Run applies.
const (
	convergeTimeout  = 2 * time.Hour
	establishTimeout = 5 * time.Minute
)

// tracedConfig is the first third of Trial.Run made from outside:
// topology and placement, then policy, as an experiment.Config.
func tracedConfig(t lab.Trial, tr *tracer) (experiment.Config, idr.ASN, error) {
	sp := tr.begin("topology.build")
	g, err := t.Topo.Build(rand.New(rand.NewSource(t.TopoSeed)))
	if err != nil {
		return experiment.Config{}, 0, err
	}
	members, err := t.Placement.Select(g)
	if err != nil {
		return experiment.Config{}, 0, err
	}
	tr.end(sp)

	sp = tr.begin("policy.build")
	pol, err := t.Policy.Build(g)
	if err != nil {
		return experiment.Config{}, 0, err
	}
	tr.end(sp)

	timers := t.Timers
	if timers == (bgp.Timers{}) {
		timers = bgp.DefaultTimers()
	}
	return experiment.Config{
		Seed:            t.Seed,
		Graph:           g,
		SDNMembers:      members,
		Policy:          pol,
		Timers:          timers,
		Debounce:        t.Debounce,
		ProcessingDelay: t.ProcessingDelay,
	}, topology.BaseASN, nil
}

// tracedWarmup is the second third: build the experiment, establish
// every session, announce the warm-up prefixes and converge.
func tracedWarmup(t lab.Trial, tr *tracer) (*experiment.Experiment, idr.ASN, error) {
	cfg, origin, err := tracedConfig(t, tr)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin("experiment.new")
	e, err := experiment.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	tr.watch(e)
	tr.end(sp)

	sp = tr.begin("experiment.establish")
	if err := e.Start(); err != nil {
		return nil, 0, err
	}
	if err := e.WaitEstablished(establishTimeout); err != nil {
		return nil, 0, err
	}
	tr.end(sp)

	sp = tr.begin("experiment.warmup")
	for _, asn := range e.ASNs() {
		if t.OriginOnly && asn != origin {
			continue
		}
		if err := e.Announce(asn); err != nil {
			return nil, 0, err
		}
	}
	if _, err := e.WaitConverged(convergeTimeout); err != nil {
		return nil, 0, err
	}
	tr.end(sp)
	return e, origin, nil
}

// tracedRun is lab.Trial.Run for a single withdrawal of the origin,
// made of the public calls Run makes, with a span around each phase.
func tracedRun(t lab.Trial, tr *tracer) (lab.Result, error) {
	e, origin, err := tracedWarmup(t, tr)
	if err != nil {
		return lab.Result{}, err
	}
	prefix, err := e.OriginPrefix(origin)
	if err != nil {
		return lab.Result{}, err
	}

	measure := tr.begin("experiment.measure")
	start := e.K.Now()
	conv, err := e.MeasureConvergence(func() error { return e.Withdraw(origin) }, convergeTimeout)
	if err != nil {
		return lab.Result{}, err
	}
	tr.end(measure)

	// The result's counters are the measure span's counter deltas:
	// Run reads the same public totals at the same two instants.
	sp := tr.begin("lab.collect")
	ep := lab.Epoch{
		Kind:            lab.KindWithdrawal,
		Convergence:     conv,
		UpdatesSent:     measure.Delta.UpdatesSent,
		UpdatesReceived: measure.Delta.UpdatesRecv,
		Recomputes:      measure.Delta.Recomputes,
	}
	// Run scans the event log twice, once for the epoch and once for
	// the whole result; on `internet 160` each scan is ~5% of the op,
	// so the replica makes both.
	for _, n := range e.Log.PathExplorationCountBetween(prefix, start, time.Time{}) {
		ep.BestPathChanges += n
	}
	res := lab.Result{
		Convergence:     ep.Convergence,
		UpdatesSent:     ep.UpdatesSent,
		UpdatesReceived: ep.UpdatesReceived,
		Recomputes:      ep.Recomputes,
		Epochs:          []lab.Epoch{ep},
		ReachableAfter:  true,
	}
	for _, n := range e.Log.PathExplorationCount(prefix, start) {
		res.BestPathChanges += n
	}
	loss := e.Probes.TotalLoss()
	res.ProbesSent, res.ProbesDelivered = loss.Sent, loss.Delivered
	for _, asn := range e.ASNs() {
		if asn != origin && !e.Reachable(asn, origin) {
			res.ReachableAfter = false
			break
		}
	}
	tr.end(sp)
	return res, nil
}
