package lab

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/idr"
)

// EventKind enumerates the typed events a workload schedule can carry.
// The first five kinds are the classic single-event triggers behind
// Trial.Event; LinkDown, LinkUp and Migrate exist only as workload
// entries because they need explicit targets.
type EventKind int

// Workload event kinds.
const (
	// KindWithdrawal withdraws the target AS's origin prefix.
	KindWithdrawal EventKind = iota
	// KindAnnouncement (re-)announces the target AS's origin prefix.
	KindAnnouncement
	// KindFailover fails the named link — or, with no link named, the
	// trial's dual-homed stub origin loses its primary attachment
	// (the classic §4 fail-over setup).
	KindFailover
	// KindFlap is the flap-storm trial sugar. It never appears inside
	// an executable schedule: Trial compiles it to FlapWorkload's
	// withdraw/announce pairs, and Workload.Validate rejects it.
	KindFlap
	// KindHijack makes the highest-numbered legacy AS announce the
	// target AS's prefix (a bogus origination).
	KindHijack
	// KindLinkDown takes the named inter-AS link down.
	KindLinkDown
	// KindLinkUp restores the named inter-AS link.
	KindLinkUp
	// KindMigrate toggles the target AS between legacy BGP and the SDN
	// cluster mid-run (experiment.Migrate).
	KindMigrate
	// KindCtrlDown crashes the SDN controller: every cluster member
	// falls back to a plain legacy BGP router mid-run
	// (experiment.ControllerDown). A no-op in pure-BGP trials, so
	// cluster-size sweeps keep their K=0 baseline.
	KindCtrlDown
	// KindCtrlUp recovers the controller: the members that fell back at
	// crash time re-join the cluster (experiment.ControllerUp).
	KindCtrlUp
	// KindSessionReset tears down the BGP session on the named link and
	// lets it re-establish, exercising the reset/reconnect paths while
	// the link itself stays up (experiment.SessionReset).
	KindSessionReset
	// KindPartition fails every link across an AS cut seeded from the
	// trial seed, splitting the network (experiment.Partition).
	KindPartition
	// KindHeal restores the links the partition failed
	// (experiment.Heal).
	KindHeal
)

// eventTable is the single name table behind EventKind.String,
// ParseEventKind, Event.String, ParseEvent and the schedule directive
// verbs ("at <t> withdraw …") shared by the scenario DSL and the
// convergence CLI's -workload flag.
var eventTable = [...]struct{ name, verb string }{
	KindWithdrawal:   {"withdrawal", "withdraw"},
	KindAnnouncement: {"announcement", "announce"},
	KindFailover:     {"failover", "failover"},
	KindFlap:         {"flap", "flap"},
	KindHijack:       {"hijack", "hijack"},
	KindLinkDown:     {"linkdown", "linkdown"},
	KindLinkUp:       {"linkup", "linkup"},
	KindMigrate:      {"migrate", "migrate"},
	KindCtrlDown:     {"ctrl-down", "ctrl-down"},
	KindCtrlUp:       {"ctrl-up", "ctrl-up"},
	KindSessionReset: {"session-reset", "session-reset"},
	KindPartition:    {"partition", "partition"},
	KindHeal:         {"heal", "heal"},
}

// EventKinds returns every defined kind, in declaration order (the
// domain of the name table; parse∘string is the identity over it).
func EventKinds() []EventKind {
	out := make([]EventKind, len(eventTable))
	for i := range out {
		out[i] = EventKind(i)
	}
	return out
}

// String names the kind ("withdrawal", "linkdown", …).
func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventTable) {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventTable[k].name
}

// Verb returns the kind's imperative schedule-directive form
// ("withdraw", "announce", …) accepted after "at <t>".
func (k EventKind) Verb() string {
	if k < 0 || int(k) >= len(eventTable) {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventTable[k].verb
}

// ParseEventKind parses a kind by its name or its directive verb.
func ParseEventKind(s string) (EventKind, error) {
	for i, e := range eventTable {
		if e.name == s || e.verb == s {
			return EventKind(i), nil
		}
	}
	return 0, fmt.Errorf("lab: unknown event %q", s)
}

// WorkloadEvent is one scheduled, typed, timestamped trigger of a
// workload: what happens, to which AS or link, and when (as an offset
// from measurement start).
type WorkloadEvent struct {
	// At is the event's offset from measurement start (the instant the
	// first epoch begins). Events run in At order.
	At time.Duration
	// Kind selects the trigger.
	Kind EventKind
	// AS is the target AS for withdraw/announce/hijack/migrate. Zero
	// means the trial origin (Trial.Run resolves it; RunWorkload
	// resolves it against its origin argument).
	AS idr.ASN
	// A and B name the link for linkdown/linkup, and the failed
	// attachment for failover. Both zero on a failover selects the
	// trial's dual-homed stub origin and its primary attachment.
	A, B idr.ASN
}

// String renders the event in "verb[(target)]@offset" form.
func (ev WorkloadEvent) String() string {
	var target string
	switch ev.Kind {
	case KindLinkDown, KindLinkUp, KindSessionReset:
		target = fmt.Sprintf("(%d-%d)", uint32(ev.A), uint32(ev.B))
	case KindFailover:
		if ev.A != 0 || ev.B != 0 {
			target = fmt.Sprintf("(%d-%d)", uint32(ev.A), uint32(ev.B))
		}
	case KindCtrlDown, KindCtrlUp, KindPartition, KindHeal:
		// Targetless faults: the whole cluster or the seeded cut.
	default:
		if ev.AS != 0 {
			target = fmt.Sprintf("(%d)", uint32(ev.AS))
		}
	}
	return fmt.Sprintf("%s%s@%s", ev.Kind.Verb(), target, ev.At)
}

// Workload is an ordered schedule of typed, timestamped events — the
// composable generalization of the single Trial.Event trigger. A trial
// with a non-empty Workload measures one epoch per event: the window
// from the event's trigger to the next event (full quiescence for the
// last), each reported in Result.Epochs.
type Workload []WorkloadEvent

// String renders the schedule compactly ("withdraw@0s; announce@10m0s").
func (w Workload) String() string {
	parts := make([]string, len(w))
	for i, ev := range w {
		parts[i] = ev.String()
	}
	return strings.Join(parts, "; ")
}

// Validate rejects schedules the engine cannot run: empty schedules,
// negative offsets, unknown kinds, the KindFlap sugar (spell out the
// withdraw/announce cycles or use FlapWorkload), and link events
// without both endpoints.
func (w Workload) Validate() error {
	if len(w) == 0 {
		return fmt.Errorf("lab: empty workload")
	}
	for i, ev := range w {
		if ev.At < 0 {
			return fmt.Errorf("lab: workload event %d (%s): negative offset", i, ev)
		}
		if ev.Kind < 0 || int(ev.Kind) >= len(eventTable) {
			return fmt.Errorf("lab: workload event %d: unknown kind %d", i, int(ev.Kind))
		}
		switch ev.Kind {
		case KindFlap:
			return fmt.Errorf("lab: workload event %d: flap is trial sugar; use FlapWorkload or spell out the cycles", i)
		case KindLinkDown, KindLinkUp, KindSessionReset:
			if ev.A == 0 || ev.B == 0 {
				return fmt.Errorf("lab: workload event %d (%s): %s needs both link endpoints", i, ev, ev.Kind.Verb())
			}
		case KindFailover:
			// Either both endpoints (an explicit link) or neither (the
			// trial's dual-homed origin) — one alone names no link.
			if (ev.A == 0) != (ev.B == 0) {
				return fmt.Errorf("lab: workload event %d (%s): failover needs both link endpoints or none", i, ev)
			}
		}
	}
	return nil
}

// sorted returns the schedule ordered by At, stably, leaving w intact.
func (w Workload) sorted() Workload {
	out := append(Workload(nil), w...)
	slices.SortStableFunc(out, func(a, b WorkloadEvent) int { return cmp.Compare(a.At, b.At) })
	return out
}

// resolve fills the trial-context defaults: AS 0 becomes origin, and a
// failover without an explicit link becomes the dual-homed origin
// losing its primary attachment.
func (w Workload) resolve(origin, primary idr.ASN) Workload {
	out := append(Workload(nil), w...)
	for i := range out {
		ev := &out[i]
		if ev.AS == 0 {
			ev.AS = origin
		}
		if ev.Kind == KindFailover && ev.A == 0 && ev.B == 0 {
			ev.A, ev.B = origin, primary
		}
	}
	return out
}

// needsDualHomedOrigin reports whether the schedule contains a
// failover of the trial origin (no explicit link), which requires the
// dual-homed stub origin setup.
func (w Workload) needsDualHomedOrigin() bool {
	for _, ev := range w {
		if ev.Kind == KindFailover && ev.A == 0 && ev.B == 0 {
			return true
		}
	}
	return false
}

// hasKind reports whether the schedule contains an event of kind k.
func (w Workload) hasKind(k EventKind) bool {
	for _, ev := range w {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

// FlapWorkload is the schedule the Flap trial sugar compiles to:
// cycles withdraw/re-announce pairs of the origin prefix, one pair per
// period (withdraw at the period start, re-announce half a period
// later). Pair it with Trial.Drain (the sugar uses 10m) so damping
// state decays before the final measurements.
func FlapWorkload(cycles int, period time.Duration) Workload {
	w := make(Workload, 0, 2*cycles)
	for i := 0; i < cycles; i++ {
		at := time.Duration(i) * period
		w = append(w,
			WorkloadEvent{At: at, Kind: KindWithdrawal},
			WorkloadEvent{At: at + period/2, Kind: KindAnnouncement},
		)
	}
	return w
}

// PoissonWorkload draws a measured-churn schedule: n alternating
// withdraw/re-announce events of the origin prefix whose gaps are
// exponentially distributed with the given mean, deterministically
// from seed. n is rounded up to even so the schedule ends announced.
func PoissonWorkload(seed int64, n int, mean time.Duration) Workload {
	if n%2 == 1 {
		n++
	}
	rng := rand.New(rand.NewSource(seed))
	w := make(Workload, 0, n)
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(mean)).Round(time.Millisecond)
		kind := KindWithdrawal
		if i%2 == 1 {
			kind = KindAnnouncement
		}
		w = append(w, WorkloadEvent{At: at, Kind: kind})
	}
	return w
}

// ParseWorkloadEvent parses one schedule directive given as
// whitespace-split fields, with or without the leading "at":
//
//	at <offset> withdraw|announce|hijack|migrate [as]
//	at <offset> linkdown|linkup|session-reset <a> <b>
//	at <offset> failover [<a> <b>]
//	at <offset> ctrl-down|ctrl-up|partition|heal
//
// The same parser backs the scenario DSL's "at" directive and the
// convergence CLI's -workload flag.
func ParseWorkloadEvent(fields []string) (WorkloadEvent, error) {
	if len(fields) > 0 && strings.EqualFold(fields[0], "at") {
		fields = fields[1:]
	}
	if len(fields) < 2 {
		return WorkloadEvent{}, fmt.Errorf("lab: want: at <offset> <event> [target…]")
	}
	at, err := time.ParseDuration(fields[0])
	if err != nil {
		return WorkloadEvent{}, fmt.Errorf("lab: bad workload offset %q", fields[0])
	}
	kind, err := ParseEventKind(fields[1])
	if err != nil {
		return WorkloadEvent{}, err
	}
	ev := WorkloadEvent{At: at, Kind: kind}
	args := fields[2:]
	asn := func(s string) (idr.ASN, error) {
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("lab: bad AS number %q", s)
		}
		return idr.ASN(v), nil
	}
	switch kind {
	case KindCtrlDown, KindCtrlUp, KindPartition, KindHeal:
		if len(args) != 0 {
			return WorkloadEvent{}, fmt.Errorf("lab: %s takes no target", kind.Verb())
		}
	case KindLinkDown, KindLinkUp, KindSessionReset:
		if len(args) != 2 {
			return WorkloadEvent{}, fmt.Errorf("lab: %s needs two link-endpoint ASes", kind.Verb())
		}
		if ev.A, err = asn(args[0]); err != nil {
			return WorkloadEvent{}, err
		}
		if ev.B, err = asn(args[1]); err != nil {
			return WorkloadEvent{}, err
		}
	case KindFailover:
		switch len(args) {
		case 0:
		case 2:
			if ev.A, err = asn(args[0]); err != nil {
				return WorkloadEvent{}, err
			}
			if ev.B, err = asn(args[1]); err != nil {
				return WorkloadEvent{}, err
			}
		default:
			return WorkloadEvent{}, fmt.Errorf("lab: failover takes no target or two link-endpoint ASes")
		}
	default:
		switch len(args) {
		case 0:
		case 1:
			if ev.AS, err = asn(args[0]); err != nil {
				return WorkloadEvent{}, err
			}
		default:
			return WorkloadEvent{}, fmt.Errorf("lab: %s takes at most one target AS", kind.Verb())
		}
	}
	return ev, nil
}

// ParseWorkload parses a whole schedule given as one string of
// semicolon- or newline-separated directives, e.g.
// "at 0s withdraw; at 10m announce" (the -workload flag syntax).
func ParseWorkload(s string) (Workload, error) {
	var w Workload
	for _, clause := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' }) {
		fields := strings.Fields(clause)
		if len(fields) == 0 {
			continue
		}
		ev, err := ParseWorkloadEvent(fields)
		if err != nil {
			return nil, err
		}
		w = append(w, ev)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Epoch is the per-event slice of a trial's measurement: what one
// scheduled trigger caused, measured from its trigger instant to the
// next event's trigger (or, for the final epoch, to full quiescence).
// The monitor instrumentation is windowed per epoch, so a schedule of
// n events yields n rows of the same counters Result reports overall.
type Epoch struct {
	// Kind is the epoch's triggering event kind.
	Kind EventKind
	// At is the event's scheduled offset from measurement start.
	At time.Duration
	// Convergence is the time from the trigger to the last routing
	// activity inside the epoch window. For the final epoch that is
	// the full convergence time; an earlier epoch cut short by the
	// next event reports the last activity before the cut.
	Convergence time.Duration
	// UpdatesSent and UpdatesReceived count legacy BGP UPDATE load
	// network-wide inside the epoch window.
	UpdatesSent, UpdatesReceived uint64
	// BestPathChanges counts best-route changes for the measured
	// prefix across all routers inside the epoch window.
	BestPathChanges int
	// Recomputes counts controller recomputation batches inside the
	// epoch window.
	Recomputes uint64
	// HijackedASes counts the ASes routing toward the attacker at the
	// end of a hijack epoch (zero for every other kind).
	HijackedASes int
}

// workloadRun parameterizes one schedule execution.
type workloadRun struct {
	origin  idr.ASN
	prefix  netip.Prefix
	timeout time.Duration
	drain   time.Duration
}

// executeWorkload runs a resolved, sorted schedule against a running,
// warmed-up experiment. It returns the per-event epochs and the
// end-of-run hijacked-AS count (-1 when the schedule hijacks nothing).
func executeWorkload(e *experiment.Experiment, w Workload, cfg workloadRun) ([]Epoch, int, error) {
	base := e.K.Now()
	epochs := make([]Epoch, len(w))
	triggers := make([]time.Time, len(w))
	var lastVictim, lastAttacker idr.ASN
	haveHijack := false
	for i, ev := range w {
		if d := base.Add(ev.At).Sub(e.K.Now()); d > 0 {
			if err := e.RunFor(d); err != nil {
				return nil, -1, err
			}
		}
		sentB, recvB := e.UpdateTotals()
		recompB := recomputes(e)
		triggers[i] = e.K.Now()
		var attacker idr.ASN
		trigger := func() error {
			var err error
			if attacker, err = ev.Apply(e); err != nil {
				return fmt.Errorf("lab: workload event %d (%s): %w", i, ev, err)
			}
			return nil
		}
		var conv time.Duration
		if i == len(w)-1 {
			// The final epoch runs to quiescence, then drains.
			var err error
			if conv, err = e.MeasureConvergence(trigger, cfg.timeout); err != nil {
				return nil, -1, err
			}
			if cfg.drain > 0 {
				if err := e.RunFor(cfg.drain); err != nil {
					return nil, -1, err
				}
			}
		} else {
			// An earlier epoch is cut short by the next event's trigger.
			e.Detector.Touch()
			if err := trigger(); err != nil {
				return nil, -1, err
			}
			if d := base.Add(w[i+1].At).Sub(e.K.Now()); d > 0 {
				if err := e.RunFor(d); err != nil {
					return nil, -1, err
				}
			}
			conv = max(e.Detector.LastActivity().Sub(triggers[i]), 0)
		}
		sentA, recvA := e.UpdateTotals()
		epochs[i] = Epoch{
			Kind:            ev.Kind,
			At:              ev.At,
			Convergence:     conv,
			UpdatesSent:     sentA - sentB,
			UpdatesReceived: recvA - recvB,
			Recomputes:      recomputes(e) - recompB,
		}
		if ev.Kind == KindHijack {
			epochs[i].HijackedASes = countHijacked(e, ev.AS, attacker)
			lastVictim, lastAttacker = ev.AS, attacker
			haveHijack = true
		}
	}
	for i := range w {
		var end time.Time
		if i+1 < len(w) {
			end = triggers[i+1]
		}
		for _, n := range e.Log.PathExplorationCountBetween(cfg.prefix, triggers[i], end) {
			epochs[i].BestPathChanges += n
		}
	}
	hijacked := -1
	if haveHijack {
		hijacked = countHijacked(e, lastVictim, lastAttacker)
	}
	return epochs, hijacked, nil
}

// Apply fires the event on a running experiment now, ignoring At: the
// one dispatcher behind Trial.Run's schedule, RunWorkload and the
// scenario DSL's lifecycle verbs. Targets must be resolved — AS 0 is
// no AS here, and a failover names its link. For a hijack it also
// returns the chosen attacker.
func (ev WorkloadEvent) Apply(e *experiment.Experiment) (idr.ASN, error) {
	switch ev.Kind {
	case KindWithdrawal:
		return 0, e.Withdraw(ev.AS)
	case KindAnnouncement:
		return 0, e.Announce(ev.AS)
	case KindFailover, KindLinkDown:
		return 0, e.FailLink(ev.A, ev.B)
	case KindLinkUp:
		return 0, e.RestoreLink(ev.A, ev.B)
	case KindMigrate:
		return 0, e.Migrate(ev.AS)
	case KindCtrlDown:
		return 0, e.ControllerDown()
	case KindCtrlUp:
		return 0, e.ControllerUp()
	case KindSessionReset:
		return 0, e.SessionReset(ev.A, ev.B)
	case KindPartition:
		return 0, e.Partition()
	case KindHeal:
		return 0, e.Heal()
	case KindHijack:
		attacker, err := hijackAttacker(e, ev.AS)
		if err != nil {
			return 0, err
		}
		prefix, err := e.OriginPrefix(ev.AS)
		if err != nil {
			return 0, err
		}
		return attacker, e.AnnounceForeign(attacker, prefix)
	default:
		return 0, fmt.Errorf("lab: unknown workload event kind %v", ev.Kind)
	}
}

// RunWorkload executes a schedule against an already running,
// warmed-up experiment and returns the per-event epochs — the engine
// behind the scenario DSL's "at …; run-workload" commands. Targets
// resolve against origin (AS 0 means origin; a failover must name its
// link explicitly, since only Trial builds the dual-homed stub).
// origin's prefix is the one measured for per-epoch path exploration;
// timeout bounds the final convergence wait and drain adds settling
// time after it (zero for none).
func RunWorkload(e *experiment.Experiment, w Workload, origin idr.ASN, timeout, drain time.Duration) ([]Epoch, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if origin == 0 {
		return nil, fmt.Errorf("lab: RunWorkload needs an origin AS")
	}
	for i, ev := range w {
		if ev.Kind == KindFailover && ev.A == 0 && ev.B == 0 {
			return nil, fmt.Errorf("lab: workload event %d: failover outside a trial needs an explicit link", i)
		}
	}
	w = w.resolve(origin, 0).sorted()
	prefix, err := e.OriginPrefix(origin)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = convergeTimeout
	}
	epochs, _, err := executeWorkload(e, w, workloadRun{
		origin:  origin,
		prefix:  prefix,
		timeout: timeout,
		drain:   drain,
	})
	return epochs, err
}
