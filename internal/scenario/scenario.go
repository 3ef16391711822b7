// Package scenario implements the framework's experiment scripting
// language: the stand-in for the paper's Python experiment setups and
// "additional Mininet-BGP commands to announce prefixes, wait until
// BGP has converged, etc.".
//
// A scenario is a line-oriented script. Configuration directives come
// first. Each sets one lab.Trial field from exactly its arguments, and
// "start" builds the experiment from the config lab.Trial.Run builds —
// the DSL is a front end to lab, like the convergence CLI:
//
//	topology clique 16      Topo: the lab.TopoSpec syntax of -topology;
//	                        random generators draw from the seed in
//	                        force at this line (TopoSeed)
//	sdn last 8              Placement: first|last|degree K, none, or
//	                        member ASNs (sdn 9 10 11 12)
//	seed 42                 Seed
//	mrai 30s                Timers; also no-mrai-jitter, hold-time 90s
//	debounce 1s             Debounce (0 or negative disables the delay)
//	processing-delay 25ms   ProcessingDelay; likewise link-delay
//	loss 0.05               LinkLoss, in [0, 1], seeded per link
//	damping on              Damping
//	policy gao-rexford      Policy: permit-all|gao-rexford|prefix-filter
//
// Lifecycle commands follow "start". Every event verb of the workload
// schedule language fires at once through lab's dispatcher
// (lab.WorkloadEvent.Apply), with the link events spelled fail-link
// and restore-link; "announce all" fires once per AS:
//
//	announce 3, withdraw 3, hijack 3, migrate 3
//	fail-link 1 2, restore-link 1 2, session-reset 1 2, failover 1 2
//	ctrl-down, ctrl-up, partition, heal
//
// The DSL's own commands:
//
//	wait-established 5m
//	wait-converged 2h          run until routing has been quiet for
//	                           max(1.5·MRAI, 5s) (monitor.Window)
//	measure <event> [timeout]  any event above: reset, trigger, wait
//	                           for quiescence; prints the time
//	run-for 30s
//	probe 1 4
//	print summary|stats|loss|timeline <as>|paths <as>|rib <as>
//	at 10m announce 1          schedule an event (the -workload syntax)
//	run-workload 1 2h          run the schedule against origin AS 1;
//	                           prints one line per epoch
package scenario

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/lab"
	"repro/internal/monitor"
)

// Script is a parsed scenario.
type Script struct {
	statements []statement
}

type statement struct {
	line int
	verb string
	args []string
}

// Parse reads a scenario script.
func Parse(r io.Reader) (*Script, error) {
	var s Script
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		s.statements = append(s.statements, statement{
			line: line,
			verb: strings.ToLower(fields[0]),
			args: fields[1:],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: reading script: %w", err)
	}
	if len(s.statements) == 0 {
		return nil, fmt.Errorf("scenario: empty script")
	}
	return &s, nil
}

// Runner executes a parsed scenario.
type Runner struct {
	out io.Writer

	// trial accumulates the configuration directives before "start".
	trial lab.Trial
	exp   *experiment.Experiment
	// pending accumulates "at" directives until "run-workload".
	pending lab.Workload
}

// NewRunner returns a Runner writing command output to out.
func NewRunner(out io.Writer) *Runner {
	return &Runner{out: out}
}

// Experiment returns the running experiment (nil before "start").
func (r *Runner) Experiment() *experiment.Experiment { return r.exp }

// Run executes the script, stopping at the first failing statement.
func (r *Runner) Run(s *Script) error {
	for _, st := range s.statements {
		if err := r.exec(st); err != nil {
			return fmt.Errorf("scenario: line %d (%s): %w", st.line, st.verb, err)
		}
	}
	return nil
}

func (r *Runner) exec(st statement) error {
	if r.exp != nil {
		return r.execLifecycle(st)
	}
	d, ok := directives[st.verb]
	if !ok {
		return fmt.Errorf("unknown or out-of-order directive")
	}
	if d.args >= 0 && len(st.args) != d.args {
		return fmt.Errorf("%s takes %d argument(s), got %d", st.verb, d.args, len(st.args))
	}
	return d.set(r, st.args)
}

// A directive sets one lab.Trial field from exactly args arguments; -1
// accepts a spec of any length.
type directive struct {
	args int
	set  func(r *Runner, args []string) error
}

var directives = map[string]directive{
	"topology": {-1, (*Runner).execTopology},
	"sdn":      {-1, (*Runner).execSDN},
	"seed": {1, func(r *Runner, args []string) (err error) {
		r.trial.Seed, err = strconv.ParseInt(args[0], 10, 64)
		return err
	}},
	"mrai": {1, func(r *Runner, args []string) error {
		d, err := parseDuration(args, 0)
		if err == nil && d == 0 {
			err = fmt.Errorf("mrai must be positive (0 would mean the default %v)", bgp.DefaultTimers().MRAI)
		}
		timers(&r.trial).MRAI = d
		return err
	}},
	"hold-time": {1, func(r *Runner, args []string) error {
		d, err := parseDuration(args, 0)
		if err == nil {
			err = bgp.CheckHoldTime(d)
		}
		timers(&r.trial).HoldTime = d
		return err
	}},
	"no-mrai-jitter": {0, func(r *Runner, _ []string) error { timers(&r.trial).MRAIJitter = false; return nil }},
	// A negative debounce disables the controller delay (lab.Trial's
	// convention), so it is the one duration that may be negative; an
	// explicit 0 disables it too, as -debounce 0 does, instead of
	// meaning the default.
	"debounce": {1, func(r *Runner, args []string) error {
		d, err := time.ParseDuration(args[0])
		if d == 0 {
			d = -1
		}
		r.trial.Debounce = d
		return err
	}},
	"processing-delay": duration(func(t *lab.Trial) *time.Duration { return &t.ProcessingDelay }),
	"link-delay":       duration(func(t *lab.Trial) *time.Duration { return &t.LinkDelay }),
	"loss": {1, func(r *Runner, args []string) error {
		p, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return fmt.Errorf("bad loss probability %q (want 0..1)", args[0])
		}
		r.trial.LinkLoss = p
		return nil
	}},
	"damping": {1, func(r *Runner, args []string) error {
		on, err := onOff(args[0])
		if r.trial.Damping = nil; on {
			r.trial.Damping = &bgp.DampingConfig{}
		}
		return err
	}},
	"policy": {1, func(r *Runner, args []string) (err error) {
		r.trial.Policy, err = lab.ParsePolicy(args[0])
		return err
	}},
	"start": {0, func(r *Runner, _ []string) error { return r.execStart() }},
}

// duration is a directive setting one non-negative duration field.
func duration(field func(*lab.Trial) *time.Duration) directive {
	return directive{1, func(r *Runner, args []string) error {
		d, err := parseDuration(args, 0)
		*field(&r.trial) = d
		return err
	}}
}

// timers returns the trial's timers for a timer directive to edit; the
// first one starts from bgp.DefaultTimers.
func timers(t *lab.Trial) *bgp.Timers {
	if t.Timers == (bgp.Timers{}) {
		t.Timers = bgp.DefaultTimers()
	}
	return &t.Timers
}

func onOff(arg string) (bool, error) {
	if arg != "on" && arg != "off" {
		return false, fmt.Errorf("want on or off, got %q", arg)
	}
	return arg == "on", nil
}

// execTopology parses the spec with the shared lab parser (the same
// one behind the convergence CLI's -topology flag); random generators
// draw from the seed in force at this line. Resolving the trial here
// makes a bad spec fail on its own line.
func (r *Runner) execTopology(args []string) error {
	spec, err := lab.ParseTopo(args)
	if err != nil {
		return err
	}
	r.trial.Topo, r.trial.TopoSeed = spec, r.trial.Seed
	_, err = r.trial.Config()
	return err
}

// execSDN resolves cluster membership through the shared lab
// placement strategies, so "sdn last 8", "sdn first 4", "sdn degree 3"
// and explicit member lists mean the same thing as the CLI's
// -placement flag.
func (r *Runner) execSDN(args []string) error {
	if r.trial.Topo == (lab.TopoSpec{}) {
		return fmt.Errorf("set a topology before sdn")
	}
	p, err := lab.ParsePlacement(args)
	if err != nil {
		return err
	}
	switch p.Strategy {
	case lab.PlaceLast, lab.PlaceFirst, lab.PlaceDegree:
		if len(args) < 2 {
			return fmt.Errorf("want: sdn %s K", p.Strategy)
		}
	}
	r.trial.Placement = p
	_, err = r.trial.Config()
	return err
}

// execStart builds the experiment from the configuration lab.Trial.Run
// would build and starts it.
func (r *Runner) execStart() error {
	if r.trial.Topo == (lab.TopoSpec{}) {
		return fmt.Errorf("no topology configured")
	}
	t := r.trial
	if t.Timers == (bgp.Timers{}) {
		// A script that sets no timer runs the routers' zero-value
		// timers (no MRAI jitter), where Trial would default to
		// bgp.DefaultTimers.
		t.Timers = t.Timers.Resolved()
	}
	cfg, err := t.Config()
	if err != nil {
		return err
	}
	exp, err := experiment.New(cfg)
	if err != nil {
		return err
	}
	// A script may end in `print timeline`; scenario-sized runs can
	// afford the paths that renders.
	exp.Log.RecordPaths()
	if err := exp.Start(); err != nil {
		return err
	}
	r.exp = exp
	fmt.Fprintf(r.out, "started: %d ASes (%d SDN), %d links\n",
		cfg.Graph.NumNodes(), len(cfg.SDNMembers), cfg.Graph.NumEdges())
	return nil
}

func (r *Runner) execLifecycle(st statement) error {
	e := r.exp
	switch st.verb {
	case "wait-established":
		d, err := parseDuration(st.args, 5*time.Minute)
		if err != nil {
			return err
		}
		if err := e.WaitEstablished(d); err != nil {
			return err
		}
		fmt.Fprintln(r.out, "all sessions established")
		return nil
	case "wait-converged":
		d, err := parseDuration(st.args, 2*time.Hour)
		if err != nil {
			return err
		}
		took, err := e.WaitConverged(d)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "converged (last activity %.3fs after trigger)\n", took.Seconds())
		return nil
	case "measure":
		return r.execMeasure(st.args)
	case "at":
		ev, err := lab.ParseWorkloadEvent(st.args)
		if err != nil {
			return err
		}
		r.pending = append(r.pending, ev)
		return nil
	case "run-workload":
		return r.execRunWorkload(st.args)
	case "run-for":
		d, err := parseDuration(st.args, 0)
		if err != nil {
			return err
		}
		return e.RunFor(d)
	case "probe":
		a, b, err := parseTwoASNs(st.args)
		if err != nil {
			return err
		}
		if err := e.InjectProbe(a, b); err != nil {
			return err
		}
		return e.RunFor(time.Second)
	case "print":
		return r.execPrint(st.args)
	default:
		return r.execEvent(st.verb, st.args)
	}
}

// execEvent fires a workload event named by its verb; "<verb> all"
// fires it once per AS, each as its target.
func (r *Runner) execEvent(verb string, args []string) error {
	if _, err := lab.ParseEventKind(eventVerb(verb)); err != nil {
		return fmt.Errorf("unknown command after start")
	}
	targets := [][]string{args}
	if len(args) == 1 && args[0] == "all" {
		targets = targets[:0]
		for _, asn := range r.exp.ASNs() {
			targets = append(targets, []string{strconv.FormatUint(uint64(asn), 10)})
		}
	}
	for _, args := range targets {
		ev, err := parseEvent(verb, args)
		if err != nil {
			return err
		}
		if err := r.apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// eventVerb maps the DSL's link-verb spellings onto the workload
// verbs; every other workload verb is spelled the same in both.
func eventVerb(verb string) string {
	switch verb {
	case "fail-link":
		return lab.KindLinkDown.Verb()
	case "restore-link":
		return lab.KindLinkUp.Verb()
	}
	return verb
}

// parseEvent parses a lifecycle verb and its targets with the shared
// workload parser, as an event due now.
func parseEvent(verb string, args []string) (lab.WorkloadEvent, error) {
	return lab.ParseWorkloadEvent(append([]string{"0s", eventVerb(verb)}, args...))
}

// apply fires one event through lab's dispatcher and prints what the
// DSL reports about it.
func (r *Runner) apply(ev lab.WorkloadEvent) error {
	e := r.exp
	if _, err := ev.Apply(e); err != nil {
		return err
	}
	switch ev.Kind {
	case lab.KindMigrate:
		side := "into the SDN cluster"
		if !e.IsSDNMember(ev.AS) {
			side = "back to legacy BGP"
		}
		fmt.Fprintf(r.out, "migrated %v %s\n", ev.AS, side)
	case lab.KindCtrlDown:
		fmt.Fprintln(r.out, "controller down: members fell back to legacy BGP")
	case lab.KindCtrlUp:
		fmt.Fprintln(r.out, "controller up: members re-joined the cluster")
	case lab.KindPartition:
		fmt.Fprintf(r.out, "partitioned: %d links cut\n", len(e.PartitionCut()))
	}
	return nil
}

// execRunWorkload executes the accumulated "at" schedule through the
// shared lab engine and prints one line per epoch.
func (r *Runner) execRunWorkload(args []string) error {
	if len(r.pending) == 0 {
		return fmt.Errorf("no scheduled events; add \"at <offset> <event> …\" directives first")
	}
	origin, err := parseASN(args, 0)
	if err != nil {
		return fmt.Errorf("want: run-workload <origin-as> [timeout]: %w", err)
	}
	timeout, err := parseDuration(args[1:], 2*time.Hour)
	if err != nil {
		return err
	}
	w := r.pending
	r.pending = nil
	epochs, err := lab.RunWorkload(r.exp, w, origin, timeout, 0)
	if err != nil {
		return err
	}
	for i, ep := range epochs {
		fmt.Fprintf(r.out, "epoch %d @%s %s: convergence %.3fs updates %d best-changes %d hijacked %d\n",
			i, ep.At, ep.Kind.Verb(), ep.Convergence.Seconds(), ep.UpdatesSent, ep.BestPathChanges, ep.HijackedASes)
	}
	return nil
}

// execMeasure runs "measure <event> [target…] [timeout]": any
// lifecycle event, measured from its trigger to quiescence.
func (r *Runner) execMeasure(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("want: measure <event> [target…] [timeout]")
	}
	timeout := 2 * time.Hour
	if n := len(args) - 1; n > 0 {
		if d, err := time.ParseDuration(args[n]); err == nil && d > 0 {
			timeout, args = d, args[:n]
		}
	}
	ev, err := parseEvent(args[0], args[1:])
	if err != nil {
		return err
	}
	d, err := r.exp.MeasureConvergence(func() error { return r.apply(ev) }, timeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "measure %s: convergence %.3fs\n", args[0], d.Seconds())
	return nil
}

func (r *Runner) execPrint(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("want: print summary|timeline <as>|loss|paths <as>")
	}
	e := r.exp
	switch args[0] {
	case "summary":
		for _, asn := range idr.SortedKeys(e.Routers) {
			s := e.Routers[asn].Stats()
			fmt.Fprintf(r.out, "%v: sent=%d recv=%d best-changes=%d state-changes=%d\n",
				asn, s.UpdatesSent, s.UpdatesReceived, s.BestChanges, s.StateChanges)
		}
		return nil
	case "timeline":
		asn, err := parseASN(args, 1)
		if err != nil {
			return err
		}
		pfx, err := e.OriginPrefix(asn)
		if err != nil {
			return err
		}
		return e.Log.WriteTimeline(r.out, pfx)
	case "loss":
		return e.Probes.WriteReport(r.out)
	case "rib":
		asn, err := parseASN(args, 1)
		if err != nil {
			return err
		}
		router, ok := e.Routers[asn]
		if !ok {
			return fmt.Errorf("%v is not a legacy BGP router (cluster members have no RIB)", asn)
		}
		return router.WriteRIB(r.out)
	case "stats":
		delivered, dropped, bytes := e.Traffic()
		fmt.Fprintf(r.out, "network: delivered=%d dropped=%d bytes=%d\n", delivered, dropped, bytes)
		// UpdateTotals keeps counting routers retired by migration.
		sent, recv := e.UpdateTotals()
		fmt.Fprintf(r.out, "bgp: updates sent=%d received=%d\n", sent, recv)
		if e.Ctrl != nil {
			s := e.Ctrl.Stats()
			fmt.Fprintf(r.out, "controller: recomputes=%d flowmods=%d route-events=%d announces=%d withdraws=%d\n",
				s.Recomputes, s.FlowModsSent, s.RouteEvents, s.AnnounceCommands, s.WithdrawCommands)
		}
		return nil
	case "paths":
		asn, err := parseASN(args, 1)
		if err != nil {
			return err
		}
		pfx, err := e.OriginPrefix(asn)
		if err != nil {
			return err
		}
		providers := make(map[idr.ASN]monitor.RouteProvider)
		for _, a := range e.ASNs() {
			providers[a] = func(netip.Prefix) (wire.ASPath, bool) {
				return e.BestPath(a, asn)
			}
		}
		return monitor.WriteForwardingDOT(r.out, pfx, providers)
	default:
		return fmt.Errorf("unknown print target %q", args[0])
	}
}

// parseDuration parses an optional single non-negative duration
// argument; def stands in for a missing one (zero: it is required).
func parseDuration(args []string, def time.Duration) (time.Duration, error) {
	switch {
	case len(args) > 1:
		return 0, fmt.Errorf("want one duration, got %d arguments", len(args))
	case len(args) == 0 && def > 0:
		return def, nil
	case len(args) == 0:
		return 0, fmt.Errorf("missing duration argument")
	}
	d, err := time.ParseDuration(args[0])
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %s", args[0])
	}
	return d, err
}

func parseASN(args []string, i int) (idr.ASN, error) {
	if len(args) <= i {
		return 0, fmt.Errorf("missing AS number")
	}
	v, err := strconv.ParseUint(args[i], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad AS number %q", args[i])
	}
	return idr.ASN(v), nil
}

func parseTwoASNs(args []string) (idr.ASN, idr.ASN, error) {
	if len(args) < 2 {
		return 0, 0, fmt.Errorf("want two AS numbers")
	}
	a, err := parseASN(args, 0)
	if err != nil {
		return 0, 0, err
	}
	b, err := parseASN(args, 1)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
