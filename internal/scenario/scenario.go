// Package scenario implements the framework's experiment scripting
// language: the stand-in for the paper's Python experiment setups and
// "additional Mininet-BGP commands to announce prefixes, wait until
// BGP has converged, etc.".
//
// A scenario is a line-oriented script. Configuration directives come
// first, then "start", then lifecycle commands:
//
//	# configuration
//	topology clique 16        (also: line/ring/star N, tree N F,
//	                           grid W H, internet N, er N P, ba N M —
//	                           the shared lab.TopoSpec syntax, identical
//	                           to the convergence CLI's -topology flag)
//	sdn last 8                (also: first K / degree K / sdn 9 10 11 12
//	                           / sdn none — the shared lab.Placement
//	                           strategies)
//	seed 42
//	mrai 30s
//	no-mrai-jitter
//	debounce 1s
//	processing-delay 25ms
//	policy gao-rexford        (also: permit-all, prefix-filter — the
//	                           shared lab.PolicySpec templates, identical
//	                           to the convergence CLI's -policy flag)
//	loss 0.05                 (per-message loss probability on every
//	                           inter-AS link, seeded per link from the
//	                           script seed — reruns are reproducible)
//	jitter 5ms                (max extra seeded random delay on
//	                           data-plane probe sends)
//	collector on
//
//	# lifecycle
//	start
//	wait-established 5m
//	announce all              (or: announce 3)
//	wait-converged 2h
//	measure withdraw 1 2h     (reset, trigger, wait; prints the time)
//	measure announce 1 2h
//	measure fail-link 1 2 2h
//	fail-link 1 2
//	restore-link 1 2
//	migrate 3                 (toggle an AS between legacy BGP and the
//	                           SDN cluster mid-run)
//	ctrl-down                 (crash the controller: members fall back
//	                           to legacy BGP; ctrl-up recovers them)
//	ctrl-up
//	session-reset 1 2         (bounce the BGP session on a live link)
//	partition                 (fail every link across a seeded AS cut;
//	                           heal restores them)
//	heal
//	run-for 30s
//	probe 1 4
//	print summary|timeline <as>|loss|paths <as>|rib <as>
//
//	# scheduled workloads (shared lab.Workload parser, identical to
//	# the convergence CLI's -workload flag)
//	at 0s withdraw 1          (also: announce, hijack, migrate <as>;
//	                           linkdown/linkup <a> <b>; failover <a> <b>;
//	                           ctrl-down; ctrl-up; session-reset <a> <b>;
//	                           partition; heal)
//	at 10m announce 1
//	run-workload 1 2h         (execute the accumulated schedule against
//	                           origin AS 1; prints one line per epoch)
package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
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
	"repro/internal/topology"
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

	// configuration being accumulated before "start"
	graph    *topology.Graph
	sdn      []idr.ASN
	cfg      experiment.Config
	pol      lab.PolicySpec
	started  bool
	exp      *experiment.Experiment
	topoRand *rand.Rand
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
	if r.started {
		return r.execLifecycle(st)
	}
	switch st.verb {
	case "topology":
		return r.execTopology(st.args)
	case "sdn":
		return r.execSDN(st.args)
	case "seed":
		v, err := parseInt(st.args, 0)
		if err != nil {
			return err
		}
		r.cfg.Seed = int64(v)
		r.topoRand = rand.New(rand.NewSource(int64(v)))
		return nil
	case "mrai":
		d, err := parseDuration(st.args, 0)
		if err != nil {
			return err
		}
		r.ensureTimers()
		r.cfg.Timers.MRAI = d
		return nil
	case "no-mrai-jitter":
		r.ensureTimers()
		r.cfg.Timers.MRAIJitter = false
		return nil
	case "hold-time":
		d, err := parseDuration(st.args, 0)
		if err != nil {
			return err
		}
		r.ensureTimers()
		r.cfg.Timers.HoldTime = d
		return nil
	case "debounce":
		d, err := parseDuration(st.args, 0)
		if err != nil {
			return err
		}
		r.cfg.Debounce = d
		return nil
	case "processing-delay":
		d, err := parseDuration(st.args, 0)
		if err != nil {
			return err
		}
		r.cfg.ProcessingDelay = d
		return nil
	case "link-delay":
		d, err := parseDuration(st.args, 0)
		if err != nil {
			return err
		}
		r.cfg.LinkDelay = d
		return nil
	case "loss":
		if len(st.args) != 1 {
			return fmt.Errorf("want: loss <probability>")
		}
		p, err := strconv.ParseFloat(st.args[0], 64)
		if err != nil || p < 0 || p > 1 {
			return fmt.Errorf("bad loss probability %q (want 0..1)", st.args[0])
		}
		r.cfg.LinkLoss = p
		return nil
	case "jitter":
		d, err := parseDuration(st.args, 0)
		if err != nil {
			return err
		}
		r.cfg.LinkJitter = d
		return nil
	case "settle":
		d, err := parseDuration(st.args, 0)
		if err != nil {
			return err
		}
		r.cfg.Settle = d
		return nil
	case "damping":
		if len(st.args) != 1 || (st.args[0] != "on" && st.args[0] != "off") {
			return fmt.Errorf("want: damping on|off")
		}
		if st.args[0] == "on" {
			r.cfg.Damping = &bgp.DampingConfig{}
		} else {
			r.cfg.Damping = nil
		}
		return nil
	case "policy":
		if len(st.args) != 1 {
			return fmt.Errorf("want one policy name")
		}
		spec, err := lab.ParsePolicy(st.args[0])
		if err != nil {
			return err
		}
		r.pol = spec
		return nil
	case "collector":
		if len(st.args) != 1 || (st.args[0] != "on" && st.args[0] != "off") {
			return fmt.Errorf("want: collector on|off")
		}
		r.cfg.WithCollector = st.args[0] == "on"
		return nil
	case "start":
		return r.execStart()
	default:
		return fmt.Errorf("unknown or out-of-order directive")
	}
}

func (r *Runner) ensureTimers() {
	if r.cfg.Timers == (bgp.Timers{}) {
		r.cfg.Timers = bgp.DefaultTimers()
	}
}

// execTopology parses the spec with the shared lab parser (the same
// one behind the convergence CLI's -topology flag) and builds the
// graph; random generators draw from the script's seed.
func (r *Runner) execTopology(args []string) error {
	spec, err := lab.ParseTopo(args)
	if err != nil {
		return err
	}
	rng := r.topoRand
	if rng == nil {
		rng = rand.New(rand.NewSource(r.cfg.Seed))
	}
	r.graph, err = spec.Build(rng)
	return err
}

// execSDN resolves cluster membership through the shared lab
// placement strategies, so "sdn last 8", "sdn first 4", "sdn degree 3"
// and explicit member lists mean the same thing as the CLI's
// -placement flag.
func (r *Runner) execSDN(args []string) error {
	if r.graph == nil {
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
	r.sdn, err = p.Select(r.graph)
	return err
}

func (r *Runner) execStart() error {
	if r.graph == nil {
		return fmt.Errorf("no topology configured")
	}
	// The policy template resolves against the final graph (the
	// prefix-filter derives cones and origin prefixes from it).
	pol, err := r.pol.Build(r.graph)
	if err != nil {
		return err
	}
	cfg := r.cfg
	cfg.Graph = r.graph
	cfg.SDNMembers = r.sdn
	cfg.Policy = pol
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
	r.started = true
	fmt.Fprintf(r.out, "started: %d ASes (%d SDN), %d links\n",
		r.graph.NumNodes(), len(r.sdn), r.graph.NumEdges())
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
	case "announce", "withdraw":
		if len(st.args) == 1 && st.args[0] == "all" {
			for _, asn := range e.ASNs() {
				if err := r.announceOrWithdraw(st.verb, asn); err != nil {
					return err
				}
			}
			return nil
		}
		asn, err := parseASN(st.args, 0)
		if err != nil {
			return err
		}
		return r.announceOrWithdraw(st.verb, asn)
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
	case "fail-link":
		a, b, err := parseTwoASNs(st.args)
		if err != nil {
			return err
		}
		return e.FailLink(a, b)
	case "restore-link":
		a, b, err := parseTwoASNs(st.args)
		if err != nil {
			return err
		}
		return e.RestoreLink(a, b)
	case "migrate":
		asn, err := parseASN(st.args, 0)
		if err != nil {
			return err
		}
		if err := e.Migrate(asn); err != nil {
			return err
		}
		side := "into the SDN cluster"
		if !e.IsSDNMember(asn) {
			side = "back to legacy BGP"
		}
		fmt.Fprintf(r.out, "migrated %v %s\n", asn, side)
		return nil
	case "ctrl-down":
		if err := e.ControllerDown(); err != nil {
			return err
		}
		fmt.Fprintln(r.out, "controller down: members fell back to legacy BGP")
		return nil
	case "ctrl-up":
		if err := e.ControllerUp(); err != nil {
			return err
		}
		fmt.Fprintln(r.out, "controller up: members re-joined the cluster")
		return nil
	case "session-reset":
		a, b, err := parseTwoASNs(st.args)
		if err != nil {
			return err
		}
		return e.SessionReset(a, b)
	case "partition":
		if err := e.Partition(); err != nil {
			return err
		}
		fmt.Fprintf(r.out, "partitioned: %d links cut\n", len(e.PartitionCut()))
		return nil
	case "heal":
		return e.Heal()
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
		return fmt.Errorf("unknown command after start")
	}
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
	timeout := 2 * time.Hour
	if len(args) > 1 {
		timeout, err = time.ParseDuration(args[1])
		if err != nil {
			return fmt.Errorf("bad timeout %q", args[1])
		}
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

func (r *Runner) announceOrWithdraw(verb string, asn idr.ASN) error {
	if verb == "announce" {
		return r.exp.Announce(asn)
	}
	return r.exp.Withdraw(asn)
}

func (r *Runner) execMeasure(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("want: measure withdraw|announce <as> [timeout] | measure fail-link <a> <b> [timeout]")
	}
	e := r.exp
	var trigger func() error
	var rest []string
	switch args[0] {
	case "withdraw":
		asn, err := parseASN(args, 1)
		if err != nil {
			return err
		}
		trigger = func() error { return e.Withdraw(asn) }
		rest = args[2:]
	case "announce":
		asn, err := parseASN(args, 1)
		if err != nil {
			return err
		}
		trigger = func() error { return e.Announce(asn) }
		rest = args[2:]
	case "fail-link":
		if len(args) < 3 {
			return fmt.Errorf("want: measure fail-link <a> <b> [timeout]")
		}
		a, b, err := parseTwoASNs(args[1:3])
		if err != nil {
			return err
		}
		trigger = func() error { return e.FailLink(a, b) }
		rest = args[3:]
	default:
		return fmt.Errorf("unknown measure trigger %q", args[0])
	}
	timeout := 2 * time.Hour
	if len(rest) > 0 {
		var err error
		timeout, err = time.ParseDuration(rest[0])
		if err != nil {
			return fmt.Errorf("bad timeout %q", rest[0])
		}
	}
	d, err := e.MeasureConvergence(trigger, timeout)
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
		for _, s := range e.Log.Summarize() {
			fmt.Fprintf(r.out, "%v: sent=%d recv=%d best-changes=%d state-changes=%d\n",
				s.Router, s.UpdatesSent, s.UpdatesRecv, s.BestChanges, s.StateChanges)
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
		fmt.Fprintf(r.out, "network: delivered=%d dropped=%d bytes=%d\n",
			e.Net.Delivered, e.Net.Dropped, e.Net.BytesDelivered)
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
			a := a
			providers[a] = func(netip.Prefix) (wire.ASPath, bool) {
				return e.BestPath(a, asn)
			}
		}
		return monitor.WriteForwardingDOT(r.out, pfx, providers)
	default:
		return fmt.Errorf("unknown print target %q", args[0])
	}
}

func parseInt(args []string, i int) (int, error) {
	if len(args) <= i {
		return 0, fmt.Errorf("missing integer argument")
	}
	return strconv.Atoi(args[i])
}

func parseDuration(args []string, def time.Duration) (time.Duration, error) {
	if len(args) == 0 {
		if def > 0 {
			return def, nil
		}
		return 0, fmt.Errorf("missing duration argument")
	}
	return time.ParseDuration(args[0])
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
