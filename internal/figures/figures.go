// Package figures declares the paper's evaluation as lab sweep specs:
// Figure 2 (withdrawal convergence on a 16-AS clique versus SDN
// deployment fraction, boxplots over 10 runs), the two experiments
// reported in prose in §4 (announcement and route fail-over), the
// policy family on internet-like AS graphs (valley-free convergence,
// policy-vs-policy-free update load, prefix-hijack containment), and
// the ablations indexed in DESIGN.md (MRAI, clique size, controller
// debounce, path exploration, flap stability). Each spec is a data
// row — topology, placement, policy, trigger, axis, seeds, and the
// overrides that do not apply to it — that the one generic Spec.Build
// turns into a lab.Sweep; the lab package runs it and encodes the
// structured result. Resolve is the string-level front door shared by
// cmd/convergence and labd's preset bridge.
package figures

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bgp"
	"repro/internal/lab"
)

// Options carries the caller's overrides into a spec. Zero-valued
// fields keep the spec's documented defaults.
type Options struct {
	// Topo overrides the experiment's topology (nil keeps the spec
	// default, e.g. the paper's 16-AS clique for fig2).
	Topo *lab.TopoSpec
	// Placement overrides the SDN placement strategy (nil keeps the
	// spec default, the paper's last-K deployment). The sdn-count axis
	// still sets K per cell.
	Placement *lab.Placement
	// SDNCounts overrides the sdn-count axis values (fig2-family and
	// exploration; default 0..N in steps of 2, or the spec's rule).
	SDNCounts []int
	// Runs overrides the per-point repetition count.
	Runs int
	// BaseSeed offsets the per-run seeds.
	BaseSeed int64
	// MRAI overrides the BGP MinRouteAdvertisementInterval on sweeps
	// that do not sweep it themselves (zero keeps the default 30s).
	MRAI time.Duration
	// Debounce overrides the controller recomputation delay (nil
	// keeps the spec default; negative disables the delay — see
	// lab.Trial.Debounce for the zero/negative convention).
	Debounce *time.Duration
	// Policy overrides the routing-policy template (zero keeps the
	// spec default: permit-all for the classic figures, gao-rexford
	// for the policy family). See lab.PolicySpec.
	Policy lab.PolicySpec
	// Workload replaces the experiment's triggering event with an
	// explicit multi-event schedule (the -workload flag). Only the
	// Figure 2 family honors it; the workload figures fix their own
	// schedules and every other spec rejects it.
	Workload lab.Workload
	// LinkLoss overlays a per-message loss probability on every
	// inter-AS link of any spec (lab.Trial.LinkLoss; zero keeps the
	// links clean). Only the loss-axis figure rejects it.
	LinkLoss float64
	// LinkDelay overlays the one-way delay of every inter-AS link
	// (lab.Trial.LinkDelay; zero keeps the emulator default).
	LinkDelay time.Duration
	// Parallelism bounds concurrent emulation runs (0 = GOMAXPROCS).
	Parallelism int
}

// Override is a set of Options fields a spec can declare inapplicable.
type Override uint8

// The overrides a spec can reject.
const (
	OverridePlacement Override = 1 << iota
	OverrideSDNCounts
	OverrideWorkload
	OverridePolicy
	OverrideMRAI
	OverrideDebounce
	OverrideLoss
)

// overrideTable says, for each rejectable override, whether the caller
// set it and how the rejection names it.
var overrideTable = [...]struct {
	ov    Override
	label string
	set   func(Options) bool
}{
	{OverridePlacement, "-placement", func(o Options) bool { return o.Placement != nil }},
	{OverrideSDNCounts, "an SDN-count list", func(o Options) bool { return len(o.SDNCounts) > 0 }},
	{OverrideWorkload, "-workload", func(o Options) bool { return len(o.Workload) > 0 }},
	{OverridePolicy, "-policy", func(o Options) bool { return o.Policy.Kind != "" }},
	{OverrideMRAI, "-mrai", func(o Options) bool { return o.MRAI != 0 }},
	{OverrideDebounce, "-debounce", func(o Options) bool { return o.Debounce != nil }},
	{OverrideLoss, "-loss", func(o Options) bool { return o.LinkLoss != 0 }},
}

// Reject declares overrides a spec cannot honor and why.
type Reject struct {
	// Overrides is the set this entry covers.
	Overrides Override
	// Why is the clause the error leads with, e.g. "mrai is a pure-BGP
	// ablation".
	Why string
}

// Spec is one registry entry: a named sweep description as data. Name,
// Title and Desc are the registry's documentation metadata — the lab
// report and the generated EXPERIMENTS.md registry block render them
// verbatim, so the registry is the single source of truth for what
// each experiment is and why it exists. The remaining fields are the
// defaults Build resolves the caller's Options against.
type Spec struct {
	// Name is the registry key (the CLI's -exp value).
	Name string
	// Title is a one-line description for listings.
	Title string
	// Desc is a short prose paragraph for generated documentation:
	// what the experiment measures and what the expected result shows.
	Desc string

	// Topo is the default topology.
	Topo lab.TopoSpec
	// Placement is the default SDN placement (the sdn-count axis sets
	// K per cell).
	Placement lab.Placement
	// Policy is the default routing-policy template.
	Policy lab.PolicySpec
	// Event is the triggering event.
	Event lab.Event
	// Workload, when set, is the fixed schedule that replaces Event.
	Workload lab.Workload
	// Debounce is the default controller recomputation delay (zero is
	// the controller's own default).
	Debounce time.Duration
	// IgnoreDebounce keeps a -debounce override out of the sweep: the
	// figure runs pure BGP in every cell, so the override is accepted
	// and has nothing to act on (and the spec's address never carried
	// it).
	IgnoreDebounce bool
	// ProcessingDelay is each router's per-UPDATE processing cost.
	ProcessingDelay time.Duration
	// FullTable keeps the full-table warm-up at any topology size; the
	// other specs switch to origin-only announcements at originOnlyAt
	// ASes.
	FullTable bool
	// Axis is the swept axis when its values are fixed.
	Axis lab.Axis
	// Counts, when set, makes the axis an sdn-count axis instead: the
	// default values as a rule over the topology's AS count (an
	// Options.SDNCounts list replaces them).
	Counts func(n int) []int
	// Runs is the default per-point repetition count.
	Runs int
	// SeedPolicy selects the per-run seed derivation.
	SeedPolicy lab.SeedPolicy
	// Rejects lists the overrides that do not apply, checked in order:
	// silently ignoring a -placement or an SDN-count list would hand
	// back numbers from a different experiment than requested.
	Rejects []Reject
	// Finish, when set, is the figure's own last step on the assembled
	// sweep: a requirement only it has, or a value only it derives.
	Finish func(sw *lab.Sweep) error
}

// originOnlyAt is the topology size (AS count) above which the
// figure specs switch the warm-up to origin-only announcements: a
// full-table warm-up holds O(N²) routes network-wide (and drives
// controller flow-mod load with the member×prefix product), which is
// what makes internet-scale sweeps infeasible, while every measured
// event concerns only the origin prefix. See lab.Trial.OriginOnly.
const originOnlyAt = 128

// Build resolves the spec and the caller's overrides into a runnable
// lab.Sweep.
func (s Spec) Build(o Options) (lab.Sweep, error) {
	for _, r := range s.Rejects {
		for _, e := range overrideTable {
			if r.Overrides&e.ov != 0 && e.set(o) {
				return lab.Sweep{}, fmt.Errorf("figures: %s; %s does not apply", r.Why, e.label)
			}
		}
	}
	sw := lab.Sweep{
		Name: s.Name,
		Base: lab.Trial{
			Topo:            s.Topo,
			Placement:       s.Placement,
			Policy:          s.Policy,
			Event:           s.Event,
			Workload:        s.Workload,
			Timers:          bgp.DefaultTimers(),
			Debounce:        s.Debounce,
			ProcessingDelay: s.ProcessingDelay,
			LinkDelay:       o.LinkDelay,
			LinkLoss:        o.LinkLoss,
		},
		Axis:        s.Axis,
		Runs:        s.Runs,
		BaseSeed:    o.BaseSeed,
		SeedPolicy:  s.SeedPolicy,
		Parallelism: o.Parallelism,
	}
	base := &sw.Base
	if o.Topo != nil {
		base.Topo = *o.Topo
	}
	if o.Placement != nil {
		base.Placement = *o.Placement
	}
	if o.Policy.Kind != "" {
		base.Policy = o.Policy
	}
	if len(o.Workload) > 0 {
		base.Workload = o.Workload
	}
	if o.MRAI != 0 {
		base.Timers.MRAI = o.MRAI
	}
	if o.Debounce != nil && !s.IgnoreDebounce {
		base.Debounce = *o.Debounce
	}
	base.OriginOnly = !s.FullTable && base.Topo.Nodes() >= originOnlyAt
	if s.Counts != nil {
		counts := o.SDNCounts
		if len(counts) == 0 {
			counts = s.Counts(base.Topo.Nodes())
		}
		sw.Axis = lab.SDNCounts(counts...)
	}
	if o.Runs > 0 {
		sw.Runs = o.Runs
	}
	if s.Finish != nil {
		if err := s.Finish(&sw); err != nil {
			return lab.Sweep{}, err
		}
	}
	return sw, nil
}

// evenCounts is the paper's Figure 2 x-axis: 0..n in steps of 2.
func evenCounts(n int) []int {
	counts := make([]int, 0, n/2+1)
	for k := 0; k <= n; k += 2 {
		counts = append(counts, k)
	}
	return counts
}

// eighths is the policy figures' x-axis: 0..n in n/8 steps, always
// ending at full deployment.
func eighths(n int) []int { return append(eighthsBelowFull(n), n) }

// eighthsBelowFull is eighths stopping short of full deployment: a
// hijack needs at least one AS still running legacy BGP to originate
// the bogus announcement.
func eighthsBelowFull(n int) []int {
	step := n / 8
	if step < 1 {
		step = 1
	}
	var counts []int
	for k := 0; k < n; k += step {
		counts = append(counts, k)
	}
	return counts
}

// quarters is the exploration ablation's x-axis.
func quarters(n int) []int { return []int{0, n / 4, n / 2, 3 * n / 4} }

// needLegacyAttacker rejects full deployment up front instead of after
// an internet-scale warm-up: with every AS clustered no legacy
// attacker exists (lab.Hijack).
func needLegacyAttacker(sw *lab.Sweep) error {
	n := sw.Base.Topo.Nodes()
	for _, k := range sw.Axis.Ints {
		if k >= n {
			return fmt.Errorf("figures: %s needs a legacy attacker; SDN count %d covers all %d ASes", sw.Name, k, n)
		}
	}
	return nil
}

// halfCluster fixes the cluster at half the network for the figures
// that sweep something else at a fixed deployment. A bare strategy
// override ("-placement degree") chooses *which* ASes form the
// cluster and keeps that size.
func halfCluster(sw *lab.Sweep) error {
	p := &sw.Base.Placement
	if p.Strategy == lab.PlaceNone {
		return fmt.Errorf("figures: %s needs a controller cluster; -placement none does not apply", sw.Name)
	}
	if p.Strategy != lab.PlaceExplicit && p.K == 0 {
		p.K = sw.Base.Topo.Nodes() / 2
	}
	return nil
}

// poissonChurn draws the churn schedule: six origin flaps with
// exponential gaps (mean 90s, drawn from the base seed, identical
// across cells) overlap the pure-BGP convergence tail — replayed,
// measured churn rather than a single trigger.
func poissonChurn(sw *lab.Sweep) error {
	sw.Base.Workload = lab.PoissonWorkload(sw.BaseSeed, 6, 90*time.Second)
	return nil
}

// The defaults most rows share: the paper's clique, the internet-like
// graph of the policy family, the small clique of the ablations, the
// 100ms controller debounce of the paper sweeps and the 25ms
// per-UPDATE processing delay approximating the paper's shared-host
// Quagga daemons.
var (
	clique16   = lab.TopoSpec{Kind: "clique", N: 16}
	clique8    = lab.TopoSpec{Kind: "clique", N: 8}
	internet32 = lab.TopoSpec{Kind: "internet", N: 32}
	lastK      = lab.Placement{Strategy: lab.PlaceLast}
	byDegree   = lab.Placement{Strategy: lab.PlaceDegree}
	pureBGP    = lab.Placement{Strategy: lab.PlaceNone}
	gaoRexford = lab.PolicySpec{Kind: lab.PolicyGaoRexford}
)

const (
	paperDebounce = 100 * time.Millisecond
	quaggaDelay   = 25 * time.Millisecond
)

// convergenceSpec is the Figure 2 family: one triggering event swept
// over the SDN deployment fraction of a 16-AS clique (or any
// -topology), 10 runs per point, per-cell seeds. It rejects nothing: a
// -workload override replaces the event with an explicit schedule on
// the same sweep.
func convergenceSpec(name, title, desc string, ev lab.Event) Spec {
	return Spec{Name: name, Title: title, Desc: desc,
		Topo: clique16, Placement: lastK, Event: ev,
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay,
		Counts: evenCounts, Runs: 10, SeedPolicy: lab.SeedCellRun}
}

// fixed is the common rejection of a figure whose trigger is fixed
// (everything except the Figure 2 family rejects -workload).
func fixed(why string) []Reject { return []Reject{{OverrideWorkload, why}} }

// unused is the common rejection of a figure that fixes its placement:
// neither -placement, an SDN-count list nor -workload applies.
func unused(why string) Reject {
	return Reject{OverridePlacement | OverrideSDNCounts | OverrideWorkload, why}
}

// registry is the experiment index, in presentation order.
var registry = []Spec{
	convergenceSpec("fig2", "Figure 2: withdrawal convergence vs SDN deployment fraction",
		"The paper's headline result: the origin AS withdraws an established prefix and the network re-converges, "+
			"measured while the SDN deployment fraction grows from pure BGP to full centralization. "+
			"Convergence time falls roughly linearly with the fraction of ASes under centralized route control — "+
			"the paper's \"convergence time can be linearly reduced\" claim, checked by the linear fit.",
		lab.Withdrawal),
	convergenceSpec("announce", "§4: fresh-prefix announcement vs SDN deployment fraction",
		"The §4 companion experiment: the origin announces a previously unseen prefix on the same sweep. "+
			"Announcements converge fast under plain BGP already (no path exploration), so the centralization "+
			"saving is much smaller than for withdrawals.",
		lab.Announcement),
	convergenceSpec("failover", "§4: dual-homed stub fail-over vs SDN deployment fraction",
		"A dual-homed stub origin loses its primary attachment while its prefix stays reachable over the backup. "+
			"Every AS must re-converge onto paths through the backup link, with real path exploration in the "+
			"legacy part of the network; centralization shortcuts that exploration.",
		lab.Failover),

	{Name: "vf", Title: "policy: valley-free withdrawal convergence vs SDN cluster size (internet-like graph)",
		Desc: "The Figure 2 question under realistic routing policy: withdrawal convergence on a seeded " +
			"internet-like AS graph with Gao-Rexford (valley-free) business policies, clustering the " +
			"highest-degree ASes first. Centralizing the well-connected core still shortens convergence " +
			"even when export rules constrain propagation.",
		Topo: lab.TopoSpec{Kind: "internet", N: 64}, Placement: byDegree, Policy: gaoRexford, Event: lab.Withdrawal,
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay,
		Counts: eighths, Runs: 5,
		Rejects: fixed("vf is a fixed-withdrawal policy figure")},

	{Name: "policyload", Title: "policy: withdrawal update load under permit-all vs gao-rexford vs prefix-filter (pure BGP)",
		Desc: "A policy-axis comparison at pure BGP: the same withdrawal on the same internet-like graph under " +
			"free transit, valley-free business routing, and valley-free plus IRR-style customer-cone prefix " +
			"filters. Policy constrains propagation, so the UPDATE load drops sharply from permit-all to the " +
			"filtered templates — the cost of policy-free evaluation is overstated update churn.",
		Topo: internet32, Placement: pureBGP, Event: lab.Withdrawal,
		IgnoreDebounce: true, ProcessingDelay: quaggaDelay,
		Axis: lab.Policies(
			lab.PolicySpec{Kind: lab.PolicyPermitAll},
			lab.PolicySpec{Kind: lab.PolicyGaoRexford},
			lab.PolicySpec{Kind: lab.PolicyPrefixFilter},
		),
		Runs: 5,
		Rejects: []Reject{
			unused("policyload is a policy-axis comparison at pure BGP"),
			{OverridePolicy, "policyload sweeps the policy itself"},
		}},

	{Name: "hijack", Title: "policy: prefix-hijack containment vs SDN cluster size (bogus-announcement reach)",
		Desc: "The highest-numbered legacy AS announces the origin's prefix (a bogus origination) and the row " +
			"reports how many ASes end up routing toward the attacker. Gao-Rexford's prefer-customer rule " +
			"amplifies stub hijacks, prefix filters kill them at the first filtered import, and growing the " +
			"SDN cluster localizes the damage — three containment regimes on one axis.",
		Topo: internet32, Placement: byDegree, Policy: gaoRexford, Event: lab.Hijack,
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay,
		Counts: eighthsBelowFull, Runs: 5,
		Rejects: fixed("hijack is a fixed-hijack policy figure"),
		Finish:  needLegacyAttacker},

	{Name: "maint", Title: "workload: maintenance window (withdraw, re-announce) re-convergence vs SDN cluster size",
		Desc: "A two-event schedule: the origin withdraws its prefix, then re-announces it ten minutes later, " +
			"measured one epoch per event. The withdrawal epoch dominates and shrinks with centralization " +
			"(path exploration again), while the re-announce floods quickly at any cluster size — the " +
			"asymmetry operators see around planned maintenance.",
		Topo: clique16, Placement: lastK,
		// The window (10m) exceeds the slowest pure-BGP withdrawal
		// convergence on the default clique, so the re-announce
		// measures a quiesced network — the interesting epoch is the
		// second one.
		Workload: lab.Workload{
			{Kind: lab.KindWithdrawal},
			{At: 10 * time.Minute, Kind: lab.KindAnnouncement},
		},
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay,
		Counts: evenCounts, Runs: 5, SeedPolicy: lab.SeedCellRun,
		Rejects: fixed("maint is a fixed maintenance-window schedule (use -exp fig2 -workload for custom timelines)")},

	{Name: "cascade", Title: "workload: cascading failure — fail-over then hijack of the weakened prefix vs SDN cluster size",
		Desc: "A second-order failure story on a gao-rexford internet graph: a dual-homed stub loses its primary " +
			"attachment, and five minutes later — mid-recovery weakness — a legacy AS hijacks its prefix. The " +
			"per-epoch hijacked column shows how much of the network the bogus route captures at each cluster " +
			"size while legitimate recovery is still in flight.",
		Topo: internet32, Placement: byDegree, Policy: gaoRexford,
		// The dual-homed stub loses its primary attachment; five
		// minutes later — mid-recovery weakness — a legacy AS hijacks
		// its prefix. The per-epoch hijacked column is the containment
		// story.
		Workload: lab.Workload{
			{Kind: lab.KindFailover},
			{At: 5 * time.Minute, Kind: lab.KindHijack},
		},
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay,
		Counts: eighthsBelowFull, Runs: 5,
		Rejects: fixed("cascade is a fixed fail-over-then-hijack schedule"),
		Finish:  needLegacyAttacker},

	{Name: "churn", Title: "workload: seeded Poisson withdraw/re-announce churn vs SDN cluster size",
		Desc: "Replayed, measured churn instead of a single trigger: six origin flaps with exponentially " +
			"distributed gaps (mean 90s, drawn deterministically from the base seed, identical across cells) " +
			"overlap the pure-BGP convergence tail. The per-epoch rows show how each regime digests events " +
			"that arrive before the previous one has settled.",
		Topo: clique16, Placement: lastK,
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay,
		Counts: evenCounts, Runs: 3, SeedPolicy: lab.SeedCellRun,
		Rejects: fixed("churn is a seed-derived Poisson schedule"),
		Finish:  poissonChurn},

	{Name: "mrai", Title: "ablation: pure-BGP withdrawal convergence vs MRAI",
		Desc: "Pure-BGP withdrawal convergence as a function of the MinRouteAdvertisementInterval. Tdown scales " +
			"with the advertisement interval — the batching that tames update load is exactly what stretches " +
			"path exploration — which is the dynamics baseline every hybrid result is read against.",
		Topo: clique8, Placement: pureBGP, Event: lab.Withdrawal,
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay, FullTable: true,
		Axis: lab.MRAIs(5*time.Second, 15*time.Second, 30*time.Second, 60*time.Second), Runs: 5,
		Rejects: []Reject{
			unused("mrai is a pure-BGP ablation"),
			{OverrideMRAI, "mrai sweeps the MRAI itself"},
		}},

	{Name: "size", Title: "ablation: pure-BGP withdrawal convergence vs topology size",
		Desc: "Pure-BGP withdrawal convergence as the clique grows: the candidate-path set grows with the mesh, " +
			"so path exploration — and with it Tdown — climbs with topology size.",
		Topo: clique8, Placement: pureBGP, Event: lab.Withdrawal,
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay, FullTable: true,
		Axis: lab.TopoSizes(4, 8, 12, 16), Runs: 5,
		Rejects: []Reject{unused("size is a pure-BGP ablation")}},

	{Name: "debounce", Title: "ablation: controller delayed recomputation (latency vs batches)",
		Desc: "The §3 design insight isolated: sweeping the controller's delayed-recomputation window at a fixed " +
			"half-clustered deployment. No delay recomputes on every event; longer windows batch bursts into " +
			"single recomputations at a small latency cost — the latency-versus-work trade the controller tunes.",
		Topo: clique8, Placement: lastK, Event: lab.Withdrawal, FullTable: true,
		Axis: lab.Debounces(-1, 500*time.Millisecond, time.Second, 2*time.Second), Runs: 5,
		Rejects: []Reject{
			{OverrideWorkload, "debounce is a fixed-withdrawal ablation"},
			{OverrideSDNCounts, "debounce sweeps the recomputation window at a fixed placement"},
			{OverrideDebounce, "debounce sweeps the recomputation window itself"},
		},
		Finish: halfCluster},

	{Name: "exploration", Title: "ablation: best-path churn and update load vs SDN count",
		Desc: "The Oliveira et al. path-exploration metric: best-route changes for the withdrawn prefix across " +
			"all routers, with and without the cluster. Centralization removes the transient intermediate " +
			"bests that plain BGP walks through before settling.",
		Topo: clique8, Placement: lastK, Event: lab.Withdrawal, FullTable: true,
		Counts: quarters, Runs: 1,
		Rejects: fixed("exploration is a fixed-withdrawal ablation")},

	{Name: "flap", Title: "ablation: flap storm under plain BGP vs damping vs SDN debounce",
		Desc: "A withdraw/re-announce storm under three containment regimes: plain BGP (every flap propagates), " +
			"RFC 2439 route-flap damping (routers punish the flapping prefix), and a half-clustered deployment " +
			"with a one-second debounce (the controller absorbs the burst). Update totals compare distributed " +
			"versus centralized stability mechanisms.",
		Topo: clique8, Event: lab.Flap, FullTable: true,
		Axis: lab.Modes(lab.ModeBGP, lab.ModeDamping, lab.ModeSDN), Runs: 1,
		Rejects: []Reject{
			unused("flap is a mode-axis ablation whose regimes set the placement"),
			{OverrideDebounce, "flap's regimes set the debounce (the sdn mode uses 1s)"},
		}},

	{Name: "ctrlfail", Title: "chaos: withdrawal convergence with a crashed controller, then recovery, vs SDN cluster size",
		Desc: "The centralization story under its worst-case fault: the controller crashes, the origin withdraws " +
			"its prefix a minute later, the controller recovers after the dust settles, and the origin " +
			"re-announces. The withdrawal epoch shows every cluster size paying the pure-BGP path-exploration " +
			"price (the crashed members fall back to legacy routers), and the final epoch measures the " +
			"re-announce with the cluster re-adopted. At K=0 the crash and recovery are no-ops, so the " +
			"baseline column doubles as a sanity anchor.",
		Topo: clique16, Placement: lastK,
		// Crash first, withdraw while headless, recover, then
		// re-announce. The 14-minute degraded window exceeds the
		// slowest pure-BGP withdrawal convergence on the default
		// clique, so the recovery epoch measures a quiesced network
		// re-adopting the cluster and the final epoch a clean
		// announcement under the restored controller.
		Workload: lab.Workload{
			{Kind: lab.KindCtrlDown},
			{At: time.Minute, Kind: lab.KindWithdrawal},
			{At: 15 * time.Minute, Kind: lab.KindCtrlUp},
			{At: 17 * time.Minute, Kind: lab.KindAnnouncement},
		},
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay,
		Counts: evenCounts, Runs: 5, SeedPolicy: lab.SeedCellRun,
		Rejects: fixed("ctrlfail is a fixed crash/withdraw/recover schedule")},

	{Name: "lossy", Title: "chaos: withdrawal convergence vs link-loss rate (half-clustered deployment)",
		Desc: "Withdrawal convergence on a half-clustered clique as every inter-AS link drops messages at the " +
			"swept rate. Lost BGP messages cost doubling retransmission timeouts, so convergence degrades " +
			"super-linearly with loss while staying byte-reproducible: each link's loss stream is seeded from " +
			"the trial seed. The per-cell spread shows how loss turns a deterministic protocol into a " +
			"distribution.",
		Topo: clique16, Placement: lastK, Event: lab.Withdrawal,
		Debounce: paperDebounce, ProcessingDelay: quaggaDelay,
		Axis: lab.Losses(0, 0.01, 0.02, 0.05, 0.1, 0.2), Runs: 5, SeedPolicy: lab.SeedCellRun,
		Rejects: []Reject{
			unused("lossy is a loss-axis ablation on a fixed half-clustered deployment"),
			{OverrideLoss, "lossy sweeps the loss rate itself"},
		},
		Finish: halfCluster},
}

// Registry returns the experiment specs in presentation order.
func Registry() []Spec {
	return append([]Spec(nil), registry...)
}

// Lookup finds a spec by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names lists the registry names in order (for usage strings).
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// Overrides is Options spelled as the strings a user types — the
// convergence flags and labd's preset submission body are both this
// struct. A field left at its zero value keeps the experiment default,
// exactly like an unset CLI flag.
type Overrides struct {
	// Topology overrides the topology spec, e.g. "clique 16".
	Topology string `json:"topology,omitempty"`
	// Placement overrides the SDN placement, e.g. "degree".
	Placement string `json:"placement,omitempty"`
	// Policy overrides the routing-policy template.
	Policy string `json:"policy,omitempty"`
	// SDNCounts overrides the sdn-count axis values.
	SDNCounts []int `json:"sdn_counts,omitempty"`
	// Workload replaces the trigger with a schedule (the -workload
	// DSL, e.g. "at 0s withdraw; at 10m announce").
	Workload string `json:"workload,omitempty"`
	// Runs overrides the per-point repetition count.
	Runs int `json:"runs,omitempty"`
	// Seed is the base seed (the CLI default is 1; zero here means 0,
	// so clients should send their seed explicitly — labctl always
	// does).
	Seed int64 `json:"seed,omitempty"`
	// MRAI overrides the BGP MinRouteAdvertisementInterval, as a
	// duration string ("5s"); empty keeps the default.
	MRAI string `json:"mrai,omitempty"`
	// Debounce overrides the controller recomputation delay, as a
	// duration string; "0" disables the delay (the CLI convention).
	Debounce string `json:"debounce,omitempty"`
	// Loss sets the per-message link-loss probability overlay.
	Loss float64 `json:"loss,omitempty"`
	// Delay sets the one-way link-delay overlay, as a duration string.
	Delay string `json:"delay,omitempty"`
}

// Bind registers the eleven override flags on fs, writing into ov: the
// one flag set `convergence` and `labctl submit` share. An unset flag
// leaves its field at the zero value (the experiment default), except
// -seed, which defaults to 1.
func (ov *Overrides) Bind(fs *flag.FlagSet) {
	fs.StringVar(&ov.Topology, "topology", "", `topology spec, e.g. "clique 16" or "grid 4 4" (default per experiment)`)
	fs.StringVar(&ov.Placement, "placement", "", "SDN placement strategy: last|first|degree for sdn-count sweeps (default last, the paper's deployment); none or as 2,3,... only where the experiment fixes the cluster (e.g. debounce)")
	fs.StringVar(&ov.Policy, "policy", "", "routing policy template: permit-all|gao-rexford|prefix-filter (default per experiment: permit-all for the classic figures, gao-rexford for vf/hijack)")
	fs.Var((*intList)(&ov.SDNCounts), "sdn-counts", "comma-separated SDN cluster sizes for sdn-count sweeps, e.g. 0,8,16 (default per experiment)")
	fs.StringVar(&ov.Workload, "workload", "", `replace the trigger with a schedule of "at <offset> <event> [target]" clauses separated by ';' (Figure 2 family only; maint/cascade/churn fix their own schedules)`)
	fs.IntVar(&ov.Runs, "runs", 0, "runs per point (0 = experiment default; the paper's boxplots use 10)")
	fs.Int64Var(&ov.Seed, "seed", 1, "base seed")
	fs.StringVar(&ov.MRAI, "mrai", "", "BGP MinRouteAdvertisementInterval, e.g. 5s (default 30s; must be positive)")
	fs.StringVar(&ov.Debounce, "debounce", "", "controller recomputation delay (default 100ms on the paper sweeps; an explicit 0 disables the delay entirely)")
	fs.Float64Var(&ov.Loss, "loss", 0, "per-message loss probability [0,1] on every inter-AS link; each link's loss stream is seeded from the trial seed, so lossy runs stay byte-reproducible")
	fs.StringVar(&ov.Delay, "delay", "", "one-way delay of every inter-AS link, e.g. 20ms (unset keeps the emulator default; per-edge topology delays win)")
}

// intList is the -sdn-counts flag: comma-separated integers, at least
// one of them.
type intList []int

// String renders the list as the flag accepts it.
func (l *intList) String() string {
	if l == nil {
		return ""
	}
	toks := make([]string, len(*l))
	for i, k := range *l {
		toks[i] = strconv.Itoa(k)
	}
	return strings.Join(toks, ",")
}

// Set parses a comma-separated list, refusing one that names no size.
func (l *intList) Set(s string) error {
	*l = nil
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		k, err := strconv.Atoi(tok)
		if err != nil {
			return fmt.Errorf("bad entry %q", tok)
		}
		*l = append(*l, k)
	}
	if len(*l) == 0 {
		return fmt.Errorf("no cluster sizes listed")
	}
	return nil
}

// Options parses the overrides through the shared lab parsers.
func (ov Overrides) Options() (Options, error) {
	if ov.Runs < 0 {
		return Options{}, fmt.Errorf("figures: runs %d is negative (0 keeps the experiment default)", ov.Runs)
	}
	if !(ov.Loss >= 0 && ov.Loss <= 1) {
		return Options{}, fmt.Errorf("figures: loss %v outside [0, 1]", ov.Loss)
	}
	o := Options{BaseSeed: ov.Seed, Runs: ov.Runs, SDNCounts: ov.SDNCounts, LinkLoss: ov.Loss}
	if ov.Topology != "" {
		t, err := lab.ParseTopoString(ov.Topology)
		if err != nil {
			return Options{}, err
		}
		o.Topo = &t
	}
	if ov.Placement != "" {
		p, err := lab.ParsePlacementString(ov.Placement)
		if err != nil {
			return Options{}, err
		}
		o.Placement = &p
	}
	var err error
	if ov.Policy != "" {
		if o.Policy, err = lab.ParsePolicy(ov.Policy); err != nil {
			return Options{}, err
		}
	}
	if ov.Workload != "" {
		if o.Workload, err = lab.ParseWorkload(ov.Workload); err != nil {
			return Options{}, err
		}
	}
	if o.MRAI, err = parseDuration("mrai", ov.MRAI); err != nil {
		return Options{}, err
	}
	if o.LinkDelay, err = parseDuration("delay", ov.Delay); err != nil {
		return Options{}, err
	}
	// Zero is each field's "unset", so an explicit 0 would silently run
	// the default instead of what was asked.
	switch {
	case ov.MRAI != "" && o.MRAI <= 0:
		return Options{}, fmt.Errorf("figures: mrai %s is not positive (0 would mean the default %v)", ov.MRAI, bgp.DefaultTimers().MRAI)
	case o.LinkDelay < 0:
		return Options{}, fmt.Errorf("figures: delay %s is negative (0 would mean the emulator default)", ov.Delay)
	}
	if ov.Debounce != "" {
		d, err := parseDuration("debounce", ov.Debounce)
		if err != nil {
			return Options{}, err
		}
		if d == 0 {
			// An explicit zero window disables the delay entirely (the
			// config convention reserves 0 for "default").
			d = -1
		}
		o.Debounce = &d
	}
	return o, nil
}

// parseDuration parses an override's duration string; empty is zero.
func parseDuration(name, text string) (time.Duration, error) {
	if text == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(text)
	if err != nil {
		return 0, fmt.Errorf("figures: bad %s %q: %w", name, text, err)
	}
	return d, nil
}

// Resolve is the one path from a name and string overrides to a
// runnable sweep: `convergence -exp X ...` and `labctl submit -exp X
// ...` both come through here, so equal flags give the identical
// canonical spec, hence the identical content address, manifest and
// outputs.
func Resolve(name string, ov Overrides) (lab.Sweep, error) {
	spec, ok := Lookup(name)
	if !ok {
		return lab.Sweep{}, fmt.Errorf("figures: unknown experiment %q (have %v)", name, Names())
	}
	o, err := ov.Options()
	if err != nil {
		return lab.Sweep{}, err
	}
	return spec.Build(o)
}

// Run is the one-call convenience: build the named spec with the
// given options and execute the sweep.
func Run(name string, o Options) (*lab.SweepResult, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("figures: unknown experiment %q (have %v)", name, Names())
	}
	sweep, err := spec.Build(o)
	if err != nil {
		return nil, err
	}
	return sweep.Run()
}
