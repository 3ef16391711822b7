package lab

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AxisKind enumerates the trial parameter a sweep varies.
type AxisKind int

// Axis kinds.
const (
	// AxisSDNCount varies the cluster size K of the trial's placement.
	AxisSDNCount AxisKind = iota
	// AxisMRAI varies the BGP MinRouteAdvertisementInterval.
	AxisMRAI
	// AxisTopoSize varies the topology's primary size parameter N.
	AxisTopoSize
	// AxisDebounce varies the controller's delayed-recomputation
	// window (negative disables the delay — the ablation case).
	AxisDebounce
	// AxisMode varies the flap-containment regime: ModeBGP (plain),
	// ModeDamping (RFC 2439) or ModeSDN (half the ASes clustered with
	// a 1s debounce).
	AxisMode
	// AxisPolicy varies the routing-policy template (permit-all,
	// gao-rexford, prefix-filter) — the policy-vs-policy-free
	// update-load comparison.
	AxisPolicy
	// AxisLoss varies the per-message link-loss probability of every
	// inter-AS link (Trial.LinkLoss) — the chaos figure's x-axis.
	AxisLoss
)

// Flap-stability regimes for AxisMode.
const (
	ModeBGP     = "bgp"
	ModeDamping = "damping"
	ModeSDN     = "sdn"
)

// Axis declares the swept parameter and its values. Construct with
// SDNCounts, MRAIs, TopoSizes, Debounces, Modes, Policies or Losses.
type Axis struct {
	// Kind selects which trial parameter the axis varies.
	Kind AxisKind
	// Ints holds the values for AxisSDNCount and AxisTopoSize.
	Ints []int
	// Durations holds the values for AxisMRAI and AxisDebounce.
	Durations []time.Duration
	// Modes holds the values for AxisMode.
	Modes []string
	// PolicySpecs holds the values for AxisPolicy.
	PolicySpecs []PolicySpec
	// Floats holds the values for AxisLoss.
	Floats []float64
}

// SDNCounts declares an sdn-count axis.
func SDNCounts(ks ...int) Axis { return Axis{Kind: AxisSDNCount, Ints: ks} }

// MRAIs declares an MRAI axis.
func MRAIs(ds ...time.Duration) Axis { return Axis{Kind: AxisMRAI, Durations: ds} }

// TopoSizes declares a topology-size axis.
func TopoSizes(ns ...int) Axis { return Axis{Kind: AxisTopoSize, Ints: ns} }

// Debounces declares a controller-debounce axis (negative disables).
func Debounces(ds ...time.Duration) Axis { return Axis{Kind: AxisDebounce, Durations: ds} }

// Modes declares a flap-containment regime axis.
func Modes(ms ...string) Axis { return Axis{Kind: AxisMode, Modes: ms} }

// Policies declares a routing-policy axis.
func Policies(ps ...PolicySpec) Axis { return Axis{Kind: AxisPolicy, PolicySpecs: ps} }

// Losses declares a link-loss-probability axis.
func Losses(ps ...float64) Axis { return Axis{Kind: AxisLoss, Floats: ps} }

// Len returns the number of sweep cells along the axis.
func (a Axis) Len() int {
	switch a.Kind {
	case AxisSDNCount, AxisTopoSize:
		return len(a.Ints)
	case AxisMode:
		return len(a.Modes)
	case AxisPolicy:
		return len(a.PolicySpecs)
	case AxisLoss:
		return len(a.Floats)
	default:
		return len(a.Durations)
	}
}

// Name returns the axis column name used by every encoder.
func (a Axis) Name() string {
	switch a.Kind {
	case AxisSDNCount:
		return "sdn_k"
	case AxisMRAI:
		return "mrai_s"
	case AxisTopoSize:
		return "size"
	case AxisDebounce:
		return "debounce_s"
	case AxisMode:
		return "mode"
	case AxisPolicy:
		return "policy"
	case AxisLoss:
		return "loss"
	default:
		return fmt.Sprintf("axis(%d)", int(a.Kind))
	}
}

// Label formats cell i's axis value for humans ("8", "30s", "off",
// "damping").
func (a Axis) Label(i int) string {
	switch a.Kind {
	case AxisSDNCount, AxisTopoSize:
		return strconv.Itoa(a.Ints[i])
	case AxisMode:
		return a.Modes[i]
	case AxisPolicy:
		return a.PolicySpecs[i].String()
	case AxisLoss:
		return strconv.FormatFloat(a.Floats[i], 'g', -1, 64)
	default:
		d := a.Durations[i]
		if d < 0 {
			return "off"
		}
		return d.String()
	}
}

// Value returns cell i's numeric axis value (duration axes in
// seconds, a disabled debounce as 0) or NaN for the non-numeric mode
// and policy axes.
func (a Axis) Value(i int) float64 {
	switch a.Kind {
	case AxisSDNCount, AxisTopoSize:
		return float64(a.Ints[i])
	case AxisMode, AxisPolicy:
		return math.NaN()
	case AxisLoss:
		return a.Floats[i]
	default:
		d := a.Durations[i]
		if d < 0 {
			return 0
		}
		return d.Seconds()
	}
}

// Apply configures trial t as sweep cell i.
func (a Axis) Apply(t *Trial, i int) {
	switch a.Kind {
	case AxisSDNCount:
		t.Placement.K = a.Ints[i]
	case AxisMRAI:
		if t.Timers == (bgp.Timers{}) {
			t.Timers = bgp.DefaultTimers()
		}
		t.Timers.MRAI = a.Durations[i]
	case AxisTopoSize:
		t.Topo.N = a.Ints[i]
	case AxisDebounce:
		t.Debounce = a.Durations[i]
	case AxisMode:
		switch a.Modes[i] {
		case ModeBGP:
			t.Placement = Placement{Strategy: PlaceNone}
			t.Damping = nil
		case ModeDamping:
			t.Placement = Placement{Strategy: PlaceNone}
			t.Damping = &bgp.DampingConfig{HalfLife: 2 * time.Minute}
		case ModeSDN:
			t.Placement = Placement{Strategy: PlaceLast, K: t.Topo.Nodes() / 2}
			t.Debounce = time.Second
			t.Damping = nil
		}
	case AxisPolicy:
		t.Policy = a.PolicySpecs[i]
	case AxisLoss:
		t.LinkLoss = a.Floats[i]
	}
}

// checkSeeds rejects SeedCellRun on a cell whose axis value does not
// convert to an integer: the mode and policy axes (Value is NaN), a
// NaN or infinite loss. Go leaves such float-to-int conversions
// implementation-defined (amd64 and arm64 disagree on NaN), so one
// accepted spec would run under platform-dependent seeds.
func (a Axis) checkSeeds(p SeedPolicy) error {
	if p != SeedCellRun {
		return nil
	}
	for i := 0; i < a.Len(); i++ {
		if v := a.Value(i); !(math.Abs(v) < 1<<62) {
			return fmt.Errorf("lab: seed policy %s adds the cell's axis value to the seed; %s cell %q has no integer value",
				seedPolicyNames[p], a.Name(), a.Label(i))
		}
	}
	return nil
}

// validate rejects axis values that cannot run against the base trial
// or seed under the sweep's policy.
func (a Axis) validate(base Trial, seeds SeedPolicy) error {
	if a.Len() == 0 {
		return fmt.Errorf("lab: empty axis")
	}
	if err := a.checkSeeds(seeds); err != nil {
		return err
	}
	switch a.Kind {
	case AxisSDNCount:
		// The axis sets Placement.K per cell; a placement that
		// ignores K would run the identical trial in every cell and
		// render the sweep a silent no-op.
		if s := base.Placement.Strategy; s == PlaceNone || s == PlaceExplicit {
			return fmt.Errorf("lab: an sdn-count axis needs a K-driven placement (%s/%s/%s), not %q",
				PlaceLast, PlaceFirst, PlaceDegree, s)
		}
		max := base.Topo.Nodes()
		for _, k := range a.Ints {
			if k < 0 || k > max {
				return fmt.Errorf("lab: SDN count %d outside 0..%d", k, max)
			}
		}
	case AxisMRAI:
		for _, d := range a.Durations {
			if d <= 0 {
				return fmt.Errorf("lab: MRAI %v is not positive (0 would mean the default %v)", d, bgp.DefaultTimers().MRAI)
			}
		}
	case AxisDebounce:
		for _, d := range a.Durations {
			if d == 0 {
				return fmt.Errorf("lab: debounce 0s is not a window (0 would mean the default %v; a negative value disables the delay)", core.DefaultDebounce)
			}
		}
	case AxisTopoSize:
		// The axis sets TopoSpec.N, documented as the AS count; for a
		// grid N is only the width, so the labels would lie about the
		// network size.
		if base.Topo.Kind == "grid" {
			return fmt.Errorf("lab: the size axis sweeps the AS count; grid has two dimensions — use a single-parameter topology")
		}
		for _, n := range a.Ints {
			spec := base.Topo
			spec.N = n
			if err := spec.check(); err != nil {
				return err
			}
		}
	case AxisMode:
		for _, m := range a.Modes {
			if m != ModeBGP && m != ModeDamping && m != ModeSDN {
				return fmt.Errorf("lab: unknown mode %q", m)
			}
		}
	case AxisPolicy:
		for _, p := range a.PolicySpecs {
			if _, err := ParsePolicy(p.String()); err != nil {
				return err
			}
		}
	case AxisLoss:
		for _, p := range a.Floats {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("lab: loss probability %v outside [0, 1]", p)
			}
		}
	}
	return nil
}

// SeedPolicy names how a sweep derives each run's seed from BaseSeed.
type SeedPolicy int

const (
	// SeedRun seeds run r of every cell with BaseSeed + r, so cells
	// differing only in the swept parameter share seeds (the ablation
	// convention: the axis is the only varying input).
	SeedRun SeedPolicy = iota
	// SeedCellRun seeds run r of the cell with integer axis value v
	// with BaseSeed + 1000r + v — the Figure 2 convention, giving
	// every (fraction, run) cell an independent jitter draw.
	SeedCellRun
)

// CellCache caches completed (cell, run) results of one sweep. The
// sweep consults it before executing a cell's run and stores every
// fresh result after, which is what lets an interrupted sweep resume
// and a repeated sweep skip all execution. Implementations (the
// artifact store) key their records by the sweep's Canonical() hash,
// so a cache bound to one spec never answers for another; positions
// identify records within the spec because the engine is
// deterministic — (spec, cell, run) fixes the result bit-for-bit.
// With Parallelism > 1 the methods are called concurrently from
// worker goroutines and must be safe for concurrent use (distinct
// (cell, run) pairs only; the sweep never asks twice for one).
type CellCache interface {
	// Load returns the cached result for (cell, run) and whether one
	// exists. A hit replaces the emulation entirely, so the returned
	// record must round-trip the Result exactly.
	Load(cell, run int) (Result, bool, error)
	// Store records a freshly computed result for (cell, run).
	Store(cell, run int, r Result) error
	// StoreFailure records the failure a tolerant sweep gave up on for
	// (cell, run). Load never serves it, so a re-run against the cache
	// retries exactly the failed positions.
	StoreFailure(cell, run int, f CellFailure) error
}

// RunDone is what Sweep.Progress hears about one finished (cell, run).
type RunDone struct {
	// Done counts the runs finished so far, this one included; Total is
	// the sweep's (cell, run) grid size.
	Done, Total int
	// Cell and Run locate the run in the sweep grid.
	Cell, Run int
	// Cached marks a result served by the sweep's Cache: no emulation
	// ran.
	Cached bool
	// Result is the run's record (zero when Failure is set).
	Result Result
	// Failure is the failure a tolerant sweep filed for the run, nil
	// otherwise.
	Failure *CellFailure
}

// Sweep varies one Axis of a base Trial over Runs seeded repetitions
// per cell, fanned across a bounded pool of worker goroutines. Results
// are placed by (cell, run) index, so the output is identical at any
// parallelism.
type Sweep struct {
	// Name labels the sweep in encoded output (the registry name).
	Name string
	// Base is the trial template every cell starts from.
	Base Trial
	// Axis declares the swept parameter and its values.
	Axis Axis
	// Runs is the number of seeded repetitions per cell (default 1).
	Runs int
	// BaseSeed offsets the per-run seeds (see SeedPolicy).
	BaseSeed int64
	// SeedPolicy selects the seed derivation (default SeedRun).
	SeedPolicy SeedPolicy
	// Parallelism bounds concurrent runs (0 = GOMAXPROCS, 1 =
	// sequential; results are identical either way).
	Parallelism int
	// Progress, when non-nil, hears about every (cell, run) that
	// finishes as a cache hit, a fresh result or, under Tolerate, a
	// filed failure; a run that aborts the sweep is not reported. With
	// Parallelism > 1 it is called concurrently from worker goroutines
	// and must be safe for concurrent use: each Done value arrives
	// once, but possibly out of order, so a forward-only consumer (a
	// progress bar) should keep the maximum seen.
	Progress func(RunDone)
	// Cache, when non-nil, is consulted before every (cell, run)
	// execution and fed every fresh result — the artifact store's
	// hook. Like Parallelism and Progress it cannot change the sweep's
	// results (a hit is bit-identical to the run it replaces), so it
	// does not participate in Canonical().
	Cache CellCache
	// Tolerate selects the failure-tolerant execution mode: a failing
	// (cell, run) — error, timeout or panic — is recorded as a
	// CellFailure in SweepResult.Failures instead of aborting the
	// sweep, and the surviving runs still summarize. Like Parallelism
	// it is an execution knob (it cannot change a successful run's
	// result) and does not participate in Canonical(). Cache
	// infrastructure errors still abort either way.
	Tolerate bool
	// Inject, when non-nil, runs before every trial execution; a
	// non-nil error (or a panic) replaces that run. It is the chaos
	// test seam for exercising the failure-tolerant machinery with
	// deterministic per-(cell, run) faults, and — like the other
	// execution knobs — does not participate in Canonical().
	Inject func(cell, run int) error
	// Stop, when non-nil, requests a graceful drain when closed:
	// in-flight (cell, run) executions finish and store their results
	// through Cache, no new grid positions start, and Run returns
	// ErrStopped. Like the other execution knobs it cannot change a
	// completed run's result and does not participate in Canonical().
	// This is how SIGINT on the CLI and daemon drain leave the artifact
	// store resumable.
	Stop <-chan struct{}
}

// ErrStopped reports that a sweep drained instead of finishing: its
// Stop channel closed while grid positions were still unclaimed, so
// the in-flight runs completed (and were stored through Cache) but at
// least one never ran. Callers distinguish it from real failures with
// errors.Is — a stopped sweep is resumable, not broken.
var ErrStopped = errors.New("lab: stopped before completion")

// PanicError wraps a panic recovered from one grid position, so a
// crashing run surfaces as an ordinary error instead of killing its
// worker goroutine or the whole process.
type PanicError struct {
	// Value is the value the run panicked with.
	Value any
	// Stack is the formatted goroutine stack at the panic site.
	Stack string
}

// Error renders the recovered panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("lab: task panicked: %v", e.Value)
}

// catch, deferred, turns a panic into a *PanicError in *err.
func catch(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: string(debug.Stack())}
	}
}

// CellFailure records one (cell, run) that a tolerant sweep gave up
// on: the terminal error and its classification.
type CellFailure struct {
	// Cell and Run locate the failed run in the sweep grid.
	Cell, Run int
	// Label is the failed cell's axis label (the encoders' row key).
	Label string
	// Err is the terminal error's text.
	Err string
	// Panicked marks a run that crashed (recovered panic) rather than
	// erroring.
	Panicked bool
	// TimedOut marks a timeout-class failure: a wall or virtual budget
	// exhausted, or an establishment/convergence deadline missed.
	TimedOut bool
}

// class names the failure's classification for output.
func (f CellFailure) class() string {
	switch {
	case f.Panicked:
		return "panic"
	case f.TimedOut:
		return "timeout"
	default:
		return "error"
	}
}

// Row is the aggregate behind one output row: the five-number
// summary of the per-run convergence times and the per-run means of
// the other counters, all over one window of every surviving run (the
// whole run for a cell, one scheduled event for an epoch). The zero
// Row stands for a cell with no surviving run.
type Row struct {
	// Summary is the five-number summary of the per-run convergence
	// times in seconds (the boxplot behind Figure 2).
	Summary stats.Summary
	// MeanUpdatesSent and MeanUpdatesReceived are the mean per-run
	// UPDATE counts inside the window.
	MeanUpdatesSent, MeanUpdatesReceived float64
	// MeanBestPathChanges is the mean per-run best-path-change count
	// inside the window.
	MeanBestPathChanges float64
	// MeanRecomputes is the mean per-run controller recomputation
	// count inside the window.
	MeanRecomputes float64
	// MeanHijacked is the mean per-run count of ASes routing toward
	// the hijack attacker at the window's end (zero for every
	// non-hijack event).
	MeanHijacked float64
}

// aggregate builds the Row of n runs, reading run r's metrics in the
// window window(r).
func aggregate(n int, window func(r int) Epoch) Row {
	var row Row
	if n == 0 {
		return row
	}
	durs := make([]time.Duration, n)
	for r := range durs {
		ep := window(r)
		durs[r] = ep.Convergence
		row.MeanUpdatesSent += float64(ep.UpdatesSent)
		row.MeanUpdatesReceived += float64(ep.UpdatesReceived)
		row.MeanBestPathChanges += float64(ep.BestPathChanges)
		row.MeanRecomputes += float64(ep.Recomputes)
		row.MeanHijacked += float64(ep.HijackedASes)
	}
	runs := float64(n)
	row.MeanUpdatesSent /= runs
	row.MeanUpdatesReceived /= runs
	row.MeanBestPathChanges /= runs
	row.MeanRecomputes /= runs
	row.MeanHijacked /= runs
	row.Summary = stats.SummarizeDurations(durs)
	return row
}

// Cell is one sweep point: an axis value with its per-run results and
// their aggregate over the whole run.
type Cell struct {
	// Label renders the cell's axis value for humans ("8", "30s",
	// "gao-rexford").
	Label string
	// Value is the cell's numeric axis value (NaN for the mode and
	// policy axes).
	Value float64
	// Fraction is Value over the topology size for the sdn-count axis
	// (NaN otherwise) — the paper's x-axis.
	Fraction float64
	// Results holds one record per seeded run, in run order.
	Results []Result
	Row
	// Epochs aggregates the per-event epochs across the cell's runs,
	// one entry per scheduled workload event. Populated only for
	// multi-event workloads (a single-event cell is its own epoch).
	Epochs []EpochStats
}

// EpochStats aggregates one scheduled workload event's epochs across a
// cell's seeded runs — the per-epoch row behind the encoders.
type EpochStats struct {
	// Kind is the epoch's triggering event kind.
	Kind EventKind
	// At is the event's scheduled offset from measurement start.
	At time.Duration
	Row
}

// summarize fills the cell's rows from its Results: the cell's over
// each run as a whole, and for a multi-event workload one per
// scheduled event.
func (c *Cell) summarize() {
	runs := c.Results
	c.Row = aggregate(len(runs), func(r int) Epoch {
		res := runs[r]
		return Epoch{Convergence: res.Convergence, UpdatesSent: res.UpdatesSent,
			UpdatesReceived: res.UpdatesReceived, BestPathChanges: res.BestPathChanges,
			Recomputes: res.Recomputes, HijackedASes: res.HijackedASes}
	})
	if len(runs) == 0 || len(runs[0].Epochs) <= 1 {
		return
	}
	for i, ep := range runs[0].Epochs {
		c.Epochs = append(c.Epochs, EpochStats{Kind: ep.Kind, At: ep.At,
			Row: aggregate(len(runs), func(r int) Epoch { return runs[r].Epochs[i] })})
	}
}

// AllReachable reports whether every run ended with the origin prefix
// reachable.
func (c Cell) AllReachable() bool {
	for _, r := range c.Results {
		if !r.ReachableAfter {
			return false
		}
	}
	return true
}

// SweepResult is a completed sweep: the configuration echo plus one
// Cell per axis value, in axis order.
type SweepResult struct {
	// Name is the sweep's registry name.
	Name string
	// Event is the base trial's triggering event (sugar; see Workload).
	Event Event
	// Workload is the base trial's explicit schedule, when one was set
	// (empty for single-event sugar trials). EventLabel prefers it.
	Workload Workload
	// Topo is the base trial's topology spec.
	Topo TopoSpec
	// Policy is the base trial's routing-policy template (overridden
	// per cell when Axis sweeps the policy — see PolicyLabel).
	Policy PolicySpec
	// Axis echoes the swept axis declaration.
	Axis Axis
	// Runs is the number of seeded repetitions per cell.
	Runs int
	// BaseSeed is the seed offset the runs derived from.
	BaseSeed int64
	// Cells holds one entry per axis value, in axis order.
	Cells []Cell
	// Failures lists the (cell, run) grid points a tolerant sweep gave
	// up on, in (cell, run) order — empty for a clean sweep (and always
	// empty without Tolerate, which aborts on the first failure). A
	// failed run is absent from its cell's Results, so the summaries
	// cover only the surviving runs.
	Failures []CellFailure
}

// CellFailures returns the recorded failures of cell ci, in run order.
func (r *SweepResult) CellFailures(ci int) []CellFailure {
	var out []CellFailure
	for _, f := range r.Failures {
		if f.Cell == ci {
			out = append(out, f)
		}
	}
	return out
}

// seed derives the seed for (cell, run) under the sweep's policy.
func (s Sweep) seed(cell, run int) int64 {
	if s.SeedPolicy == SeedCellRun {
		return s.BaseSeed + int64(run)*1000 + int64(s.Axis.Value(cell))
	}
	return s.BaseSeed + int64(run)
}

// trialFor instantiates sweep cell ci, run r: the base trial with the
// axis applied, the derived run seed, and the topology pinned to the
// sweep's BaseSeed so every cell measures the same graph.
func (s Sweep) trialFor(ci, run int) Trial {
	trial := s.Base
	s.Axis.Apply(&trial, ci)
	trial.Seed = s.seed(ci, run)
	trial.TopoSeed = s.BaseSeed
	return trial
}

// runTrial executes (ci, run) with panic recovery, so a crashing run
// can be filed as a CellFailure instead of unwinding the sweep.
func (s Sweep) runTrial(ci, run int) (res Result, err error) {
	defer catch(&err)
	if s.Inject != nil {
		if err := s.Inject(ci, run); err != nil {
			return Result{}, err
		}
	}
	return s.trialFor(ci, run).Run()
}

// isTimeout classifies timeout-class failures: an exhausted wall or
// event budget, or a missed establishment/convergence deadline.
func isTimeout(err error) bool {
	return errors.Is(err, monitor.ErrTimeout) ||
		errors.Is(err, sim.ErrWallBudget) ||
		errors.Is(err, sim.ErrEventBudget)
}

// runError locates err at grid position (ci, run).
func (s Sweep) runError(ci, run int, err error) error {
	return fmt.Errorf("lab: %s %s=%s run %d: %w", s.Name, s.Axis.Name(), s.Axis.Label(ci), run, err)
}

// settle finishes grid position (d.Cell, d.Run) as a cache hit, a
// fresh result stored through Cache or, under Tolerate, a failure filed
// through Cache. An error aborts the sweep.
func (s Sweep) settle(d *RunDone) error {
	if s.Cache != nil {
		r, ok, err := s.Cache.Load(d.Cell, d.Run)
		if err != nil {
			return s.runError(d.Cell, d.Run, fmt.Errorf("cache: %w", err))
		}
		if ok {
			d.Cached, d.Result = true, r
			return nil
		}
	}
	r, err := s.runTrial(d.Cell, d.Run)
	var cerr error
	switch {
	case err == nil:
		d.Result = r
		if s.Cache != nil {
			cerr = s.Cache.Store(d.Cell, d.Run, r)
		}
	case s.Tolerate:
		var pe *PanicError
		d.Failure = &CellFailure{
			Cell:     d.Cell,
			Run:      d.Run,
			Label:    s.Axis.Label(d.Cell),
			Err:      err.Error(),
			Panicked: errors.As(err, &pe),
			TimedOut: isTimeout(err),
		}
		if s.Cache != nil {
			cerr = s.Cache.StoreFailure(d.Cell, d.Run, *d.Failure)
		}
	default:
		return s.runError(d.Cell, d.Run, err)
	}
	if cerr != nil {
		return s.runError(d.Cell, d.Run, fmt.Errorf("cache: %w", cerr))
	}
	return nil
}

// each calls task(i) for every grid index i in [0, n) on up to
// Parallelism worker goroutines (0 = GOMAXPROCS). Every run owns its
// own sim.Kernel, so the only coordination is the index counter.
// Indices are claimed in increasing order and no worker claims one
// after a task has failed; the lowest-index error is returned, so the
// reported failure is the same at any parallelism. A panicking task
// becomes a *PanicError for its index without killing its worker. Once
// Stop closes, workers finish the tasks they hold and claim no more;
// if an index was left unclaimed the result is ErrStopped.
func (s Sweep) each(n int, task func(i int) error) error {
	p := s.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed, drained atomic.Bool
	var wg sync.WaitGroup
	for range min(p, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				select {
				case <-s.Stop:
					drained.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = runTask(task, i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if drained.Load() && int(next.Load()) < n {
		return ErrStopped
	}
	return nil
}

// runTask calls task(i), turning a panic into a *PanicError.
func runTask(task func(i int) error, i int) (err error) {
	defer catch(&err)
	return task(i)
}

// Run executes the sweep. The (cell, run) grid fans out across the
// configured parallelism; results are gathered in cell order, so the
// returned series is identical for any Parallelism. Without Tolerate
// the first failing run aborts the sweep; with it, failures are
// recorded in SweepResult.Failures and the surviving runs summarize.
func (s Sweep) Run() (*SweepResult, error) {
	if s.Runs <= 0 {
		s.Runs = 1
	}
	if s.Parallelism < 0 {
		return nil, fmt.Errorf("lab: parallelism %d is negative (0 = GOMAXPROCS, 1 = sequential)", s.Parallelism)
	}
	if err := s.Base.validate(); err != nil {
		return nil, err
	}
	if err := s.Axis.validate(s.Base, s.SeedPolicy); err != nil {
		return nil, err
	}
	n := s.Axis.Len()
	runs := make([]RunDone, n*s.Runs)
	var finished atomic.Int64
	err := s.each(len(runs), func(i int) error {
		d := RunDone{Total: len(runs), Cell: i / s.Runs, Run: i % s.Runs}
		if err := s.settle(&d); err != nil {
			return err
		}
		d.Done = int(finished.Add(1))
		runs[i] = d
		if s.Progress != nil {
			s.Progress(d)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Name:     s.Name,
		Event:    s.Base.Event,
		Workload: s.Base.Workload,
		Topo:     s.Base.Topo,
		Policy:   s.Base.Policy,
		Axis:     s.Axis,
		Runs:     s.Runs,
		BaseSeed: s.BaseSeed,
		Cells:    make([]Cell, n),
	}
	for ci := 0; ci < n; ci++ {
		surviving := make([]Result, 0, s.Runs)
		for _, d := range runs[ci*s.Runs : (ci+1)*s.Runs] {
			if d.Failure != nil {
				res.Failures = append(res.Failures, *d.Failure)
			} else {
				surviving = append(surviving, d.Result)
			}
		}
		cell := Cell{
			Label:    s.Axis.Label(ci),
			Value:    s.Axis.Value(ci),
			Fraction: math.NaN(),
			Results:  surviving,
		}
		if s.Axis.Kind == AxisSDNCount && s.Base.Topo.Nodes() > 0 {
			cell.Fraction = cell.Value / float64(s.Base.Topo.Nodes())
		}
		cell.summarize()
		res.Cells[ci] = cell
	}
	return res, nil
}

// TopoLabel renders the sweep's topology for output. When the axis
// sweeps the topology size, the base spec's N is overridden per cell,
// so only the generator kind is echoed.
func (r *SweepResult) TopoLabel() string {
	if r.Axis.Kind == AxisTopoSize {
		return r.Topo.Kind + " (size swept)"
	}
	return r.Topo.String()
}

// EventLabel renders the sweep's trigger for output: the schedule when
// an explicit workload is set, the single event name otherwise.
func (r *SweepResult) EventLabel() string {
	if len(r.Workload) > 0 {
		return r.Workload.String()
	}
	return r.Event.String()
}

// hasHijack reports whether the sweep's trigger hijacks a prefix (the
// encoders gate the hijacked column on it).
func (r *SweepResult) hasHijack() bool {
	if len(r.Workload) > 0 {
		return r.Workload.hasKind(KindHijack)
	}
	return r.Event == Hijack
}

// PolicyLabel renders the sweep's routing policy for output. When the
// axis sweeps the policy itself, the base template is overridden per
// cell, so "(swept)" is echoed instead.
func (r *SweepResult) PolicyLabel() string {
	if r.Axis.Kind == AxisPolicy {
		return "(swept)"
	}
	return r.Policy.String()
}

// Fit fits median convergence time against the axis (the SDN fraction
// for the sdn-count axis, the numeric value otherwise) and returns
// intercept, slope and r² — the check behind the paper's "convergence
// time can be linearly reduced" claim. Cells in which no run survived
// (a tolerant sweep) have no median and stay out of the fit. ok is
// false when there is no line to report: the non-numeric mode and
// policy axes, fewer than two cells left, or no variance in x.
func (r *SweepResult) Fit() (a, b, r2 float64, ok bool) {
	if r.Axis.Kind == AxisMode || r.Axis.Kind == AxisPolicy {
		return 0, 0, 0, false
	}
	var xs, ys []float64
	for _, c := range r.Cells {
		if c.Summary.N == 0 {
			continue
		}
		x := c.Value
		if r.Axis.Kind == AxisSDNCount {
			x = c.Fraction
		}
		xs = append(xs, x)
		ys = append(ys, c.Summary.Median)
	}
	a, b, r2 = stats.LinearFit(xs, ys)
	if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(r2) {
		return 0, 0, 0, false
	}
	return a, b, r2, true
}

// SVG is one rendered boxplot of a sweep.
type SVG struct {
	// Suffix tells the plots of one sweep apart in file names: "" for
	// the main boxplot, "-e0", "-e1", … for the per-epoch ones.
	Suffix string
	// Data is the SVG document.
	Data []byte
}

// Boxplots renders the sweep as SVG boxplots (the paper's Figure 2
// presentation): the per-run convergence times, then, for a
// multi-event workload, one plot per scheduled event's epoch. A
// non-empty subtitle is printed under every title.
func (r *SweepResult) Boxplots(subtitle string) ([]SVG, error) {
	cfg := plot.BoxplotConfig{
		Title:    fmt.Sprintf("%s convergence on %s", r.EventLabel(), r.TopoLabel()),
		Subtitle: subtitle,
		XLabel:   r.Axis.Name(),
		YLabel:   "convergence time (s)",
	}
	if r.Axis.Kind == AxisSDNCount {
		cfg.XLabel = "fraction of ASes with centralized route control"
	}
	var svgs []SVG
	render := func(suffix string, epoch int) error {
		var buf bytes.Buffer
		if err := plot.WriteBoxplot(&buf, cfg, r.boxes(epoch)); err != nil {
			return err
		}
		svgs = append(svgs, SVG{Suffix: suffix, Data: buf.Bytes()})
		return nil
	}
	if err := render("", -1); err != nil {
		return nil, err
	}
	if len(r.Cells) > 0 {
		for i, ep := range r.Cells[0].Epochs {
			cfg.Title = fmt.Sprintf("epoch %d (@%s %s) on %s", i, ep.At, ep.Kind.Verb(), r.TopoLabel())
			if err := render(fmt.Sprintf("-e%d", i), i); err != nil {
				return nil, err
			}
		}
	}
	return svgs, nil
}

// boxes adapts the sweep to the boxplot renderer, one box per cell
// (percent labels on the sdn-count axis, Figure 2 style): the per-run
// convergence times, or for epoch >= 0 that scheduled event's. A cell
// whose runs all failed has no epochs and draws an empty box.
func (r *SweepResult) boxes(epoch int) []plot.Box {
	boxes := make([]plot.Box, len(r.Cells))
	for i, c := range r.Cells {
		boxes[i].Label = c.Label
		if r.Axis.Kind == AxisSDNCount && !math.IsNaN(c.Fraction) {
			boxes[i].Label = fmt.Sprintf("%.0f%%", 100*c.Fraction)
		}
		switch {
		case epoch < 0:
			boxes[i].Summary = c.Summary
		case epoch < len(c.Epochs):
			boxes[i].Summary = c.Epochs[epoch].Summary
		}
	}
	return boxes
}
