// Package lab is the unified evaluation API: one fully-specified
// emulation run (Trial) returning one uniform metrics record (Result),
// swept along one declared Axis by a generic parallel Sweep, with one
// encoder layer (table, csv, json, SVG boxplot adapter) over the
// structured output.
//
// The paper's pitch is that users script arbitrary hybrid BGP/SDN
// experiments while the framework handles configuration and
// measurement; lab is the measurement half of that promise. A Trial
// names any topology generator (TopoSpec), an SDN placement strategy
// (Placement), the protocol timers, the triggering workload and a seed
// — and Run executes the full emulation (build, establish, announce,
// converge, trigger, measure) on a private sim.Kernel, so trials are
// share-nothing and deterministic per seed. The trigger is a Workload:
// an ordered schedule of typed, timestamped events, measured one epoch
// per event; the classic Trial.Event enum is documented sugar that
// compiles to an equivalent schedule. internal/figures declares the
// paper's figures and ablations as Sweep specs over this API;
// cmd/convergence exposes the same specs on the command line.
package lab

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/topology"
)

// Event selects the triggering routing event a trial measures. It is
// sugar over the Workload schedule: each value compiles to its
// equivalent one-entry schedule (the Flap storm to FlapWorkload's
// withdraw/announce pairs), so a Trial with Event set behaves exactly
// like one with the explicit Workload. Set Trial.Workload for
// multi-event timelines; it takes precedence over Event.
type Event int

// Trial events. Their values coincide with the first EventKinds, and
// Event.String/ParseEvent share the workload name table.
const (
	// Withdrawal: the origin AS withdraws an established prefix — the
	// paper's Figure 2 experiment.
	Withdrawal Event = Event(KindWithdrawal)
	// Announcement: the origin AS announces a fresh prefix (§4).
	Announcement Event = Event(KindAnnouncement)
	// Failover: a dual-homed stub origin loses its primary attachment
	// while the prefix stays reachable over the backup (§4).
	Failover Event = Event(KindFailover)
	// Flap: the origin withdraws and re-announces its prefix for
	// flapCycles periods of flapPeriod — the stability-ablation storm.
	Flap Event = Event(KindFlap)
	// Hijack: the highest-numbered AS still running legacy BGP
	// announces the origin's prefix (a bogus origination). The result
	// reports how many ASes end up routing toward the attacker
	// (Result.HijackedASes) — the containment question behind the
	// policy figure family.
	Hijack Event = Event(KindHijack)
)

// String names the event through the shared workload name table.
func (ev Event) String() string { return EventKind(ev).String() }

// ParseEvent parses a trial-event name. Only the five trial events are
// accepted; the workload-only kinds (linkdown, linkup, migrate) need
// targets and are parsed by ParseWorkloadEvent.
func ParseEvent(s string) (Event, error) {
	k, err := ParseEventKind(s)
	if err != nil || k > KindHijack {
		return 0, fmt.Errorf("lab: unknown event %q", s)
	}
	return Event(k), nil
}

// Trial fully specifies one seeded emulation run. The zero value plus
// a Topo is runnable: default timers, pure BGP, withdrawal event.
type Trial struct {
	// Topo names the topology generator and its parameters.
	Topo TopoSpec
	// Placement decides the SDN cluster membership.
	Placement Placement
	// Policy selects the routing-policy template applied at every
	// legacy router. The zero value is permit-all — free transit — so
	// existing policy-free trials are unchanged; see PolicySpec for
	// gao-rexford and prefix-filter.
	Policy PolicySpec
	// Event is the triggering routing event to measure — sugar that
	// compiles to a one-entry Workload (see Event). Ignored when
	// Workload is set.
	Event Event
	// Workload, when non-empty, is the trial's schedule of triggering
	// events, measured one epoch per event (Result.Epochs). Targets
	// default to the trial origin (WorkloadEvent.AS zero); the
	// schedule is run in At order.
	Workload Workload
	// Drain adds settling time after the final epoch reaches
	// quiescence, so slow-decaying state (route-flap damping) drains
	// before the end-of-run measurements. The Flap sugar uses 10m;
	// zero adds nothing.
	Drain time.Duration
	// Timers are the BGP protocol timers (zero value selects
	// bgp.DefaultTimers: MRAI 30s with jitter).
	Timers bgp.Timers
	// Debounce is the controller's delayed-recomputation window,
	// passed to experiment.Config verbatim. Zero selects the
	// controller default (core.DefaultDebounce); a negative value
	// disables the delay entirely (recompute immediately). This is the
	// one convention across lab, experiment and core — a zero-length
	// window is the same thing as disabled, so express it with a
	// negative value.
	Debounce time.Duration
	// ProcessingDelay is each router's per-UPDATE processing cost,
	// passed to experiment.Config verbatim (zero disables the model;
	// the clique sweep specs set 25ms, approximating the paper's
	// shared-host Quagga daemons).
	ProcessingDelay time.Duration
	// LinkDelay is the default one-way delay of every inter-AS link
	// (zero selects netem.DefaultDelay; per-edge delays from the
	// topology override it).
	LinkDelay time.Duration
	// LinkLoss is the per-transmission loss probability in [0, 1] on
	// every inter-AS link, drawn from a per-link stream derived from
	// Seed so lossy runs stay byte-reproducible at any parallelism.
	// Every frame, BGP or probe, recovers losses with retransmission
	// delays (and the transport gives up entirely at Loss 1.0 —
	// sessions never establish).
	LinkLoss float64
	// Damping enables RFC 2439 route-flap damping on legacy routers.
	Damping *bgp.DampingConfig
	// OriginOnly restricts the warm-up to announcing only the trial
	// origin's prefix instead of every AS's. At internet-like scale a
	// full-table warm-up costs O(N²) RIB entries (every router holds a
	// route to every AS) which dominates both memory and run time;
	// every trial event only ever measures the origin prefix, so
	// origin-only warm-up preserves the measured dynamics while making
	// multi-thousand-AS trials feasible. False (the default) keeps the
	// historical full-table warm-up.
	OriginOnly bool
	// Seed drives the run's protocol randomness (MRAI jitter, loss
	// draws); same trial + same seed = identical run.
	Seed int64
	// TopoSeed seeds the random topology generators (internet, er,
	// ba); deterministic generators ignore it. It is separate from
	// Seed so a sweep measures one fixed graph across every cell and
	// run instead of confounding the swept axis with topology
	// variation — Sweep.Run pins it to the sweep's BaseSeed.
	TopoSeed int64
	// WallLimit bounds the trial's real (wall-clock) execution time;
	// when exceeded the kernel aborts with sim.ErrWallBudget. It is an
	// execution guard, not part of the trial's canonical identity: it
	// can only turn a run into a failure, never change a successful
	// result. Zero disables the guard.
	WallLimit time.Duration
}

// Result is the uniform metrics record of one trial, gathered from the
// monitor instrumentation. All counters cover the measurement phase
// (from the first triggering event on), not the warm-up convergence.
// Epochs carries the same counters windowed per scheduled event; the
// windows partition the measurement phase, and UpdatesSent,
// UpdatesReceived, BestPathChanges and Recomputes are their sums.
type Result struct {
	// Convergence is the final epoch's convergence time: from the last
	// scheduled event's trigger to the last routing activity it
	// caused. (For the Flap storm that is the time from the last
	// cycle's re-announce to quiescence.)
	Convergence time.Duration
	// UpdatesSent and UpdatesReceived count legacy BGP UPDATE load
	// network-wide during the measurement phase: the sums of the
	// routers' bgp.Stats, so a received UPDATE counts only when an
	// Established session processed it.
	UpdatesSent, UpdatesReceived uint64
	// BestPathChanges counts best-route changes for the origin prefix
	// across all routers (the path-exploration metric after Oliveira
	// et al.).
	BestPathChanges int
	// Recomputes counts controller recomputation batches (zero in
	// pure-BGP trials).
	Recomputes uint64
	// ProbesSent and ProbesDelivered report data-plane probe outcomes
	// (zero unless the trial injects probes).
	ProbesSent, ProbesDelivered uint64
	// HijackedASes counts the ASes whose best route for the victim's
	// prefix leads to the attacker once the run settles (zero when the
	// workload hijacks nothing). The victim and the attacker
	// themselves are not counted.
	HijackedASes int
	// ReachableAfter reports whether every other AS can reach the
	// origin prefix once the run settles (false after a withdrawal by
	// construction; the fail-over and flap checks).
	ReachableAfter bool
	// Epochs holds one record per scheduled workload event, in
	// schedule order: the per-event slice of the counters above
	// (single-event trials have exactly one epoch).
	Epochs []Epoch
}

// withDefaults fills the documented defaults.
func (t Trial) withDefaults() Trial {
	if t.Timers == (bgp.Timers{}) {
		t.Timers = bgp.DefaultTimers()
	}
	return t
}

// The fixed shape of every trial: the Flap storm's cycle count and
// period, the floor of each convergence wait's virtual-time bound
// (convergeWindow) and the bound on session establishment.
const (
	flapCycles       = 6
	flapPeriod       = 20 * time.Second
	convergeFloor    = 2 * time.Hour
	establishTimeout = 5 * time.Minute
)

// convergeWindow bounds each of a trial's convergence waits in virtual
// time: 2·N·MRAI for N ASes, and never less than convergeFloor.
// Labovitz et al. (SIGCOMM 2000) bound a withdrawal's path exploration
// on a clique of n ASes by (n−3)·MRAI; the factor two leaves room for
// the longer paths a sparse graph explores (a 500-AS internet-like
// graph converges after some 300 MRAI rounds). The window is a
// function of the trial, so it moves no result a run reaches, only
// which runs may reach one.
func convergeWindow(n int, mrai time.Duration) time.Duration {
	mrai = bgp.Timers{MRAI: mrai}.Resolved().MRAI
	if mrai > 0 && int64(n) > math.MaxInt64/2/int64(mrai) {
		return math.MaxInt64
	}
	return max(convergeFloor, 2*time.Duration(n)*mrai)
}

// validate refuses base-trial values no run can honour, the checks
// every other front door (the DSL, the override flags, the axes)
// already makes: a hold time an OPEN cannot carry, a link loss outside
// [0, 1], and a negative MRAI, delay or drain (no MRAI at all, runs
// that fail after admission, or a second spelling of the zero-drain
// run). Zero stays "unset" everywhere; Debounce is free to be
// negative, which disables the controller delay.
func (t Trial) validate() error {
	if err := bgp.CheckHoldTime(t.Timers.HoldTime); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	if !(t.LinkLoss >= 0 && t.LinkLoss <= 1) {
		return fmt.Errorf("lab: link loss %v outside [0, 1]", t.LinkLoss)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"MRAI", t.Timers.MRAI},
		{"link delay", t.LinkDelay},
		{"processing delay", t.ProcessingDelay},
		{"drain", t.Drain},
	} {
		if d.v < 0 {
			return fmt.Errorf("lab: %s %v is negative", d.name, d.v)
		}
	}
	return nil
}

// flapDrain is the settling time the Flap sugar appends after the
// storm's final quiescence (damping penalties need decay time).
const flapDrain = 10 * time.Minute

// workload resolves the trial's schedule: the explicit Workload when
// set (with the trial's Drain), otherwise the Event sugar compiled to
// its equivalent schedule.
func (t Trial) workload() (Workload, time.Duration, error) {
	if len(t.Workload) > 0 {
		if err := t.Workload.Validate(); err != nil {
			return nil, 0, err
		}
		return t.Workload.sorted(), t.Drain, nil
	}
	switch t.Event {
	case Withdrawal, Announcement, Failover, Hijack:
		return Workload{{Kind: EventKind(t.Event)}}, t.Drain, nil
	case Flap:
		drain := t.Drain
		if drain == 0 {
			drain = flapDrain
		}
		return FlapWorkload(flapCycles, flapPeriod), drain, nil
	default:
		return nil, 0, fmt.Errorf("lab: unknown event %v", t.Event)
	}
}

// Run executes the trial: build the topology, select the cluster,
// bring the network up, announce every prefix, converge, then run the
// workload schedule and measure one epoch per event. It returns the
// uniform metrics record.
func (t Trial) Run() (Result, error) {
	p, err := t.prepare()
	if err != nil {
		return Result{}, err
	}
	e, err := p.warmup()
	if err != nil {
		return Result{}, err
	}
	return p.measure(e)
}

// Config resolves the trial to the experiment.Config Run builds — the
// topology from TopoSeed, the selected cluster, the policy resolved
// against the graph and every link, timer and controller setting —
// without running anything. The scenario DSL starts its experiments
// from it.
func (t Trial) Config() (experiment.Config, error) {
	p, err := t.prepare()
	if err != nil {
		return experiment.Config{}, err
	}
	return p.cfg, nil
}

// Warmup runs Run's first phase and returns the experiment Run goes on
// to measure: built, started, every session established, the warm-up
// prefixes announced and converged.
func (t Trial) Warmup() (*experiment.Experiment, error) {
	p, err := t.prepare()
	if err != nil {
		return nil, err
	}
	return p.warmup()
}

// prepared is one trial resolved to its execution plan: defaults
// applied, the workload compiled and resolved against the origin, the
// topology built, the cluster selected and the experiment config
// assembled. It is the seam between the warm-up phase (whose converged
// state experiment.Snapshot captures) and the measurement phase.
type prepared struct {
	trial  Trial // with defaults applied
	w      Workload
	drain  time.Duration
	origin idr.ASN
	cfg    experiment.Config
	// window bounds each convergence wait (convergeWindow).
	window time.Duration
}

// prepare resolves the trial to its execution plan without running
// anything.
func (t Trial) prepare() (*prepared, error) {
	t = t.withDefaults()
	w, drain, err := t.workload()
	if err != nil {
		return nil, err
	}
	g, err := t.Topo.Build(rand.New(rand.NewSource(t.TopoSeed)))
	if err != nil {
		return nil, err
	}
	members, err := t.Placement.Select(g)
	if err != nil {
		return nil, err
	}
	origin := topology.BaseASN
	if w.needsDualHomedOrigin() {
		// The fail-over scenario dual-homes a stub origin onto the
		// first two non-origin ASes: failing the primary attachment
		// forces every AS to re-converge onto paths through the
		// backup, with real path exploration in the legacy part. The
		// stub attaches as a customer (P2C toward it), so its prefix
		// propagates globally under valley-free policies too.
		if g.NumNodes() < 3 {
			return nil, fmt.Errorf("lab: failover needs >= 3 ASes, topology %q has %d", t.Topo, g.NumNodes())
		}
		origin = topology.BaseASN + idr.ASN(g.NumNodes())
		g.AddNode(origin)
		if err := g.AddEdge(topology.Edge{A: topology.BaseASN + 1, B: origin, Rel: topology.P2C}); err != nil {
			return nil, err
		}
		if err := g.AddEdge(topology.Edge{A: topology.BaseASN + 2, B: origin, Rel: topology.P2C}); err != nil {
			return nil, err
		}
	}
	w = w.resolve(origin, topology.BaseASN+1)
	// Resolve the policy template against the final graph (after the
	// fail-over origin was added, so the prefix-filter's address plan
	// matches the experiment's).
	pol, err := t.Policy.Build(g)
	if err != nil {
		return nil, err
	}
	return &prepared{
		trial:  t,
		w:      w,
		drain:  drain,
		origin: origin,
		window: convergeWindow(g.NumNodes(), t.Timers.MRAI),
		cfg: experiment.Config{
			Seed:            t.Seed,
			Graph:           g,
			SDNMembers:      members,
			Policy:          pol,
			Timers:          t.Timers,
			Debounce:        t.Debounce,
			ProcessingDelay: t.ProcessingDelay,
			LinkDelay:       t.LinkDelay,
			LinkLoss:        t.LinkLoss,
			Damping:         t.Damping,
			WallLimit:       t.WallLimit,
		},
	}, nil
}

// warmup builds and starts the experiment, announces the warm-up
// prefixes and waits for full convergence — the state Warmup returns
// and WarmupSnapshot captures.
func (p *prepared) warmup() (*experiment.Experiment, error) {
	e, err := experiment.New(p.cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	if err := e.WaitEstablished(establishTimeout); err != nil {
		return nil, err
	}

	// Warm-up: announce every prefix and let routing settle. The
	// origin's own prefix stays unannounced when the schedule opens by
	// announcing it (the fresh-announcement measurement); OriginOnly
	// trims the warm-up to the origin prefix alone.
	skipOrigin := p.w[0].Kind == KindAnnouncement && p.w[0].AS == p.origin
	for _, asn := range e.ASNs() {
		if skipOrigin && asn == p.origin {
			continue
		}
		if p.trial.OriginOnly && asn != p.origin {
			continue
		}
		if err := e.Announce(asn); err != nil {
			return nil, err
		}
	}
	if _, err := e.WaitConverged(p.window); err != nil {
		return nil, err
	}
	return e, nil
}

// measure drives the workload schedule against a warmed-up (or
// restored) experiment and assembles the metrics record.
func (p *prepared) measure(e *experiment.Experiment) (Result, error) {
	prefix, err := e.OriginPrefix(p.origin)
	if err != nil {
		return Result{}, err
	}
	epochs, hijacked, err := executeWorkload(e, p.w, workloadRun{
		origin:  p.origin,
		prefix:  prefix,
		timeout: p.window,
		drain:   p.drain,
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Epochs:         epochs,
		Convergence:    epochs[len(epochs)-1].Convergence,
		HijackedASes:   max(hijacked, 0),
		ReachableAfter: e.AllReachable(p.origin),
	}
	// The epochs partition the measurement phase, so its totals are
	// their sums.
	for _, ep := range epochs {
		res.UpdatesSent += ep.UpdatesSent
		res.UpdatesReceived += ep.UpdatesReceived
		res.Recomputes += ep.Recomputes
		res.BestPathChanges += ep.BestPathChanges
	}
	loss := e.Probes.TotalLoss()
	res.ProbesSent, res.ProbesDelivered = loss.Sent, loss.Delivered
	return res, nil
}

// hijackAttacker picks the bogus originator for a hijack event: the
// highest-numbered AS that still runs legacy BGP and is not the
// victim. A fully-clustered network has no legacy attacker and the
// trial errors out (sweep the cluster size below N).
func hijackAttacker(e *experiment.Experiment, victim idr.ASN) (idr.ASN, error) {
	asns := e.ASNs()
	for i := len(asns) - 1; i >= 0; i-- {
		if asns[i] != victim && !e.IsSDNMember(asns[i]) {
			return asns[i], nil
		}
	}
	return 0, fmt.Errorf("lab: hijack needs at least one legacy AS besides the origin")
}

// countHijacked counts the ASes (victim and attacker excluded) whose
// settled best route for the victim's prefix terminates at the
// attacker.
func countHijacked(e *experiment.Experiment, victim, attacker idr.ASN) int {
	n := 0
	for _, asn := range e.ASNs() {
		if asn == victim || asn == attacker {
			continue
		}
		path, ok := e.BestPath(asn, victim)
		if !ok {
			continue
		}
		if last, has := path.Origin(); has && last == attacker {
			n++
		}
	}
	return n
}

func recomputes(e *experiment.Experiment) uint64 {
	if e.Ctrl == nil {
		return 0
	}
	return e.Ctrl.Stats().Recomputes
}
