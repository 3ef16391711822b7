package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestQuietLivenessModel holds the arithmetic liveness of mated
// sessions (bgp.Mating) and their computed handshakes (bgp.Opening) to
// the modelled ones: random lossless graphs of up to 32 ASes, some with
// a cluster, some with routers that queue their work, run one seeded
// script of faults twice — sessions mated, and every session sending
// and hearing its OPEN and KEEPALIVEs as frames (modelledKeepalives) —
// and after every step the two runs must read the same clock, the same
// Stats from every router, the same Traffic totals, the same session
// counts and the same event-log summary, and end with the same routes.
// The script first acts inside the handshake: before the clock has run
// t₀, or once it has run to a nanosecond on either side of a picked
// link's OPENs or KEEPALIVEs landing, it reads, resets, flaps,
// migrates, announces or takes a Snapshot/Restore round trip. Then steps run to random instants, to the very
// nanosecond of a KEEPALIVE's send or landing on some link, and apply
// SessionReset, link flaps, migrations both ways, controller crashes,
// partitions, announcements and Snapshot/Restore round trips — each of
// them at whatever instant the previous steps left.
func TestQuietLivenessModel(t *testing.T) {
	seeds := int64(32)
	if testing.Short() || raceEnabled {
		seeds = 6
	}
	for seed := int64(1); seed <= seeds; seed++ {
		c := newLivenessCase(t, seed)
		quiet := c.play(t, false)
		modelled := c.play(t, true)
		for i := range max(len(quiet), len(modelled)) {
			var q, m string
			if i < len(quiet) {
				q = quiet[i]
			}
			if i < len(modelled) {
				m = modelled[i]
			}
			if q != m {
				t.Fatalf("seed %d (%d ASes, hold %v, delay %v), step %d:\nquiet:    %s\nmodelled: %s",
					seed, c.cfg.Graph.NumNodes(), c.cfg.Timers.HoldTime, c.cfg.LinkDelay, i, q, m)
			}
		}
	}
}

// livenessCase is one random experiment and the script both runs of it
// play.
type livenessCase struct {
	cfg   Config
	edges []topology.Edge
	// window acts before the sessions are Established; ops after.
	window, ops []livenessOp
	// early has the first window step act before the clock has run t₀.
	early bool
}

type livenessOp struct {
	kind int
	// pick chooses the link or AS the step acts on, n and d its
	// count and duration.
	pick int
	n    int64
	d    time.Duration
}

const (
	opRun = iota
	opKeepalive
	opReset
	opFlap
	opMigrate
	opCtrl
	opPartition
	opAnnounce
	opConverge
	opSnapshot
	opKinds
)

func newLivenessCase(t *testing.T, seed int64) *livenessCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(29)
	var g *topology.Graph
	var err error
	switch {
	case n > topology.MinInternetLike && rng.Intn(2) == 0:
		g, err = topology.SynthesizeInternetLike(n, rng)
	case rng.Intn(2) == 0:
		g, err = topology.BarabasiAlbert(n, 2, rng)
	default:
		g, err = topology.Ring(n)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Some links run at a delay of their own, up to a whole keepalive
	// interval, and beyond it, where sessions are not mated.
	holds := []time.Duration{3 * time.Second, 9 * time.Second, 30 * time.Second, 90 * time.Second}
	hold := holds[rng.Intn(len(holds))]
	delays := []time.Duration{0, 0, 3 * time.Millisecond, 250 * time.Millisecond, hold/3 - 1, hold / 3, hold / 2}
	wired := topology.New()
	for _, asn := range g.Nodes() {
		wired.AddNode(asn)
	}
	for _, edge := range g.Edges() {
		edge.Delay = delays[rng.Intn(len(delays))]
		if err := wired.AddEdge(edge); err != nil {
			t.Fatal(err)
		}
	}
	c := &livenessCase{edges: wired.Edges(), cfg: Config{
		Seed:     seed,
		Graph:    wired,
		Timers:   bgp.Timers{HoldTime: hold, MRAI: time.Duration(1+rng.Intn(5)) * time.Second, MRAIJitter: rng.Intn(2) == 0},
		Debounce: 100 * time.Millisecond,
	}}
	// Routers that queue their work, with hold times that keep the
	// queue short of holding a KEEPALIVE back for two intervals, where
	// the modelled run would expire it; TestQuietQueueWake takes the
	// queue past one.
	if hold >= 30*time.Second && rng.Intn(2) == 0 {
		c.cfg.ProcessingDelay = 25 * time.Millisecond
	}
	if rng.Intn(2) == 0 {
		c.cfg.Policy = policy.GaoRexford{}
	}
	if rng.Intn(2) == 0 {
		nodes := wired.Nodes()
		for _, i := range rng.Perm(len(nodes))[:1+rng.Intn(3)] {
			c.cfg.SDNMembers = append(c.cfg.SDNMembers, nodes[i])
		}
	}
	for range 12 + rng.Intn(14) {
		c.ops = append(c.ops, livenessOp{
			kind: rng.Intn(opKinds),
			pick: rng.Intn(1 << 20),
			n:    rng.Int63(),
			d:    time.Duration(rng.Int63n(int64(3 * hold / 2))),
		})
	}
	for range 1 + rng.Intn(3) {
		c.window = append(c.window, livenessOp{kind: rng.Intn(windowKinds), pick: rng.Intn(1 << 20), n: rng.Int63()})
	}
	c.early = rng.Intn(3) == 0
	return c
}

// What a window step does once at its instant.
const (
	windowRead = iota
	windowReset
	windowFlap
	windowMigrate
	windowAnnounce
	windowSnapshot
	windowKinds
)

// play runs the script once and returns what every step read.
func (c *livenessCase) play(t *testing.T, modelled bool) []string {
	t.Helper()
	modelledKeepalives = modelled
	defer func() { modelledKeepalives = false }()
	e, err := New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var out []string
	step := func(what string, err error) {
		if err != nil {
			what += " error: " + err.Error()
		}
		checkEstablishedCounts(t, e, what)
		out = append(out, readLiveness(e, what))
	}
	// up is when each link's sessions last came up from nothing: a
	// KEEPALIVE of a pair Established then is due every interval after
	// two link delays.
	up := make(map[int]time.Time)
	for i, op := range c.window {
		edge := c.edges[op.pick%len(c.edges)]
		delay := edge.Delay
		if delay == 0 {
			delay = time.Millisecond
		}
		// A nanosecond on either side of the OPENs or the KEEPALIVEs
		// landing, or on it; or before the clock has run t₀.
		at := sim.Epoch.Add([]time.Duration{delay - 1, delay, delay + 1, 2*delay - 1, 2 * delay}[op.n%5])
		if i == 0 && c.early {
			at = e.K.Now()
		}
		if at.After(e.K.Now()) {
			step(fmt.Sprintf("window %d run to %v", i, at.Sub(sim.Epoch)), e.K.RunUntil(at))
		}
		asns := e.ASNs()
		asn := asns[op.pick%len(asns)]
		switch op.kind {
		case windowRead:
			step(fmt.Sprintf("window %d read", i), nil)
		case windowReset:
			err := e.SessionReset(edge.A, edge.B)
			if err == nil {
				up[op.pick%len(c.edges)] = e.K.Now()
			}
			step(fmt.Sprintf("window %d session-reset %v-%v", i, edge.A, edge.B), err)
		case windowFlap:
			step(fmt.Sprintf("window %d fail-link %v-%v", i, edge.A, edge.B), e.FailLink(edge.A, edge.B))
			step(fmt.Sprintf("window %d down for %v", i, delay/2), e.RunFor(delay/2))
			err := e.RestoreLink(edge.A, edge.B)
			up[op.pick%len(c.edges)] = e.K.Now()
			step(fmt.Sprintf("window %d restore-link %v-%v", i, edge.A, edge.B), err)
		case windowMigrate:
			step(fmt.Sprintf("window %d migrate %v", i, asn), e.Migrate(asn))
		case windowAnnounce:
			step(fmt.Sprintf("window %d announce %v", i, asn), e.Announce(asn))
		case windowSnapshot:
			restored, err := roundTrip(c.cfg, e)
			if err == nil {
				e = restored
			}
			step(fmt.Sprintf("window %d snapshot and restore", i), err)
		}
	}
	step("established", e.WaitEstablished(5*time.Minute))
	for _, asn := range e.ASNs() {
		if _, ok := e.Routers[asn]; ok {
			step(fmt.Sprintf("announce %v", asn), e.Announce(asn))
		}
	}
	_, err = e.WaitConverged(time.Hour)
	step("converged", err)
	interval := c.cfg.Timers.HoldTime / 3
	for i, op := range c.ops {
		edge := c.edges[op.pick%len(c.edges)]
		delay := edge.Delay
		if delay == 0 {
			delay = time.Millisecond
		}
		asns := e.ASNs()
		asn := asns[op.pick%len(asns)]
		switch op.kind {
		case opRun:
			step(fmt.Sprintf("%d run %v", i, op.d), e.RunFor(op.d))
		case opKeepalive:
			// The instant a KEEPALIVE leaves or lands on the link, give
			// or take a nanosecond.
			anchor, ok := up[op.pick%len(c.edges)]
			if !ok {
				anchor = sim.Epoch
			}
			anchor = anchor.Add(2 * delay)
			if anchor.Before(e.K.Now()) {
				anchor = anchor.Add((e.K.Now().Sub(anchor)/interval + 1) * interval)
			}
			at := anchor.Add([]time.Duration{0, 0, delay, -1, 1, delay - 1}[op.n%6])
			step(fmt.Sprintf("%d run to %v", i, at.Sub(e.K.Now())), e.K.RunUntil(at))
		case opReset:
			err := e.SessionReset(edge.A, edge.B)
			if err == nil {
				up[op.pick%len(c.edges)] = e.K.Now()
			}
			step(fmt.Sprintf("%d session-reset %v-%v", i, edge.A, edge.B), err)
		case opFlap:
			step(fmt.Sprintf("%d fail-link %v-%v", i, edge.A, edge.B), e.FailLink(edge.A, edge.B))
			step(fmt.Sprintf("%d down for %v", i, op.d/4), e.RunFor(op.d/4))
			err := e.RestoreLink(edge.A, edge.B)
			up[op.pick%len(c.edges)] = e.K.Now()
			step(fmt.Sprintf("%d restore-link %v-%v", i, edge.A, edge.B), err)
		case opMigrate:
			step(fmt.Sprintf("%d migrate %v", i, asn), e.Migrate(asn))
		case opCtrl:
			if e.ControllerCrashed() {
				step(fmt.Sprintf("%d ctrl-up", i), e.ControllerUp())
			} else {
				step(fmt.Sprintf("%d ctrl-down", i), e.ControllerDown())
			}
		case opPartition:
			if e.PartitionCut() == nil {
				step(fmt.Sprintf("%d partition", i), e.Partition())
			} else {
				step(fmt.Sprintf("%d heal", i), e.Heal())
			}
		case opAnnounce:
			if err := e.Withdraw(asn); err != nil {
				step(fmt.Sprintf("%d announce %v", i, asn), e.Announce(asn))
			} else {
				step(fmt.Sprintf("%d withdraw %v", i, asn), nil)
			}
		case opConverge:
			d, err := e.WaitConverged(time.Hour)
			step(fmt.Sprintf("%d converged in %v", i, d), err)
		case opSnapshot:
			restored, err := roundTrip(c.cfg, e)
			if err == nil {
				e = restored
			}
			step(fmt.Sprintf("%d snapshot and restore", i), err)
		}
	}
	_, err = e.WaitConverged(time.Hour)
	step("final convergence", err)
	var routes strings.Builder
	for _, from := range e.ASNs() {
		for _, to := range e.ASNs() {
			path, ok := e.BestPath(from, to)
			fmt.Fprintf(&routes, "%v>%v:%v/%v ", from, to, path, ok)
		}
	}
	out = append(out, routes.String())
	return out
}

// roundTrip restores a snapshot of e from its encoding.
func roundTrip(cfg Config, e *Experiment) (*Experiment, error) {
	snap, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	raw, err := EncodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	if snap, err = DecodeSnapshot(raw); err != nil {
		return nil, err
	}
	return Restore(cfg, snap)
}

// readLiveness is one step's reading: the clock, the traffic totals,
// and every router's counters and Established sessions.
func readLiveness(e *Experiment, what string) string {
	var b strings.Builder
	delivered, dropped, bytes := e.Traffic()
	fmt.Fprintf(&b, "%s @%v traffic %d/%d/%d", what, e.K.Elapsed(), delivered, dropped, bytes)
	for _, asn := range e.ASNs() {
		if r, ok := e.Routers[asn]; ok {
			fmt.Fprintf(&b, " %v%+v/%d", asn, r.Stats(), r.EstablishedCount())
		}
	}
	return b.String()
}

// checkEstablishedCounts holds every router's Established counter,
// which its sessions move as they come and go and a restore recounts,
// to a scan of its sessions.
func checkEstablishedCounts(t *testing.T, e *Experiment, what string) {
	t.Helper()
	for _, asn := range e.ASNs() {
		r, ok := e.Routers[asn]
		if !ok {
			continue
		}
		scan := 0
		for _, p := range r.Sessions() {
			if p.State() == bgp.StateEstablished {
				scan++
			}
		}
		if got := r.EstablishedCount(); got != scan || len(r.Sessions()) != len(r.Peers()) {
			t.Fatalf("after %s: AS %v counts %d Established sessions, a scan of its %d (of %d) finds %d", what, asn, got, len(r.Sessions()), len(r.Peers()), scan)
		}
	}
}

// TestMatingFollowsTheLink pins which sessions keep liveness by
// arithmetic: the two router sessions of a lossless link, whether or
// not their routers queue their work; never a session of a lossy link.
func TestMatingFollowsTheLink(t *testing.T) {
	g := mustGraph(topology.Line(3))
	for _, c := range []struct {
		name  string
		cfg   Config
		quiet bool
	}{
		{"lossless", Config{Seed: 1, Graph: g}, true},
		{"lossy", Config{Seed: 1, Graph: g, LinkLoss: 0.01}, false},
		{"processing delay", Config{Seed: 1, Graph: g, ProcessingDelay: 25 * time.Millisecond}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := build(t, c.cfg)
			if err := e.RunFor(time.Minute); err != nil {
				t.Fatal(err)
			}
			frames, _ := e.links[linkKey(1, 2)].mating.Landed()
			if quiet := frames > 0; quiet != c.quiet {
				t.Fatalf("KEEPALIVEs landed by arithmetic: %d, want some: %v", frames, c.quiet)
			}
			if delivered, _, _ := e.Traffic(); c.quiet && delivered == e.Net.Delivered {
				t.Fatalf("Traffic counts no arithmetic KEEPALIVE over %d frames", delivered)
			}
		})
	}
}

// TestQuietQueueWake takes a router's work queue past one keepalive
// interval: the hub of a star with a processing delay of about a
// second, whose four leaves announce at once, queues four UPDATEs
// behind each other — a KEEPALIVE landing behind them would wait longer
// than an interval, so the hub's quiet pairs wake and run on modelled
// timers. The quiet run must read what the modelled run reads, before,
// during and after the backlog.
func TestQuietQueueWake(t *testing.T) {
	cfg := Config{
		Seed:            1,
		Graph:           mustGraph(topology.Star(5)),
		Timers:          bgp.Timers{HoldTime: 9 * time.Second, MRAI: time.Second},
		ProcessingDelay: 1100 * time.Millisecond,
	}
	play := func(modelled bool) ([]string, int, bool) {
		modelledKeepalives = modelled
		defer func() { modelledKeepalives = false }()
		e := build(t, cfg)
		out := []string{readLiveness(e, "established")}
		down := false
		if err := e.RunFor(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		out = append(out, readLiveness(e, "idle"))
		for _, asn := range e.ASNs()[1:] {
			if err := e.Announce(asn); err != nil {
				t.Fatal(err)
			}
		}
		for range 12 {
			if err := e.RunFor(1500 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			out = append(out, readLiveness(e, "announced"))
			for _, r := range e.Routers {
				down = down || r.EstablishedCount() != len(r.Sessions())
			}
		}
		awake := 0
		for _, l := range e.links {
			if frames, _ := l.mating.Landed(); frames == 0 {
				awake++
			}
		}
		return out, awake, down
	}
	quiet, awake, _ := play(false)
	modelled, _, down := play(true)
	if awake == 0 {
		t.Fatal("no pair of the hub woke for its queue")
	}
	for i := range modelled {
		if quiet[i] != modelled[i] {
			t.Fatalf("step %d:\nquiet:    %s\nmodelled: %s", i, quiet[i], modelled[i])
		}
	}
	if down {
		t.Fatalf("the queue expired a hold time; the test wants it under two intervals:\n%s", strings.Join(modelled, "\n"))
	}
}

// TestQuietHandshakeMatchesEmulated holds one computed handshake
// (bgp.Opening) to the emulated one on a mated link between two routers
// that queue their work. The link comes up three ways: computed; with
// its handshake emulated, because an event ran on the clock before
// Start; and modelled, every frame on the wire. All three must read the
// same clock, Stats, Traffic, link counters, Established counts,
// session states and event-log summary right after Start, at t₀ once
// the clock has run it, a nanosecond either side of the OPENs and of
// the KEEPALIVEs landing, on each, at t₀+4d, and a nanosecond either
// side of the first KEEPALIVEs of the Established pair landing, which
// holds the computed pair's quiet liveness to the emulated one's. Each
// run also acts once right after Start, before the clock has run t₀ —
// doing nothing, resetting the session, announcing a prefix, failing
// the link or failing and restoring it — where the computed sessions
// must still be Idle and leave the bring-up to the kernel. Untouched,
// the computed handshake costs three events, the emulated one ten, and
// the pair is quiet once Established.
func TestQuietHandshakeMatchesEmulated(t *testing.T) {
	const d = 3 * time.Millisecond
	cfg := Config{
		Seed:            1,
		Graph:           mustGraph(topology.Line(2)),
		Timers:          bgp.Timers{HoldTime: 9 * time.Second, MRAI: time.Second},
		LinkDelay:       d,
		ProcessingDelay: 25 * time.Millisecond,
	}
	acts := []struct {
		name string
		act  func(e *Experiment) error
	}{
		{"nothing", func(*Experiment) error { return nil }},
		{"session-reset", func(e *Experiment) error { return e.SessionReset(1, 2) }},
		{"announce", func(e *Experiment) error { return e.Announce(1) }},
		{"fail-link", func(e *Experiment) error { return e.FailLink(1, 2) }},
		{"flap-link", func(e *Experiment) error {
			if err := e.FailLink(1, 2); err != nil {
				return err
			}
			return e.RestoreLink(1, 2)
		}},
	}
	for _, a := range acts {
		t.Run(a.name, func(t *testing.T) {
			play := func(how string) (readings []string, events uint64) {
				modelledKeepalives = how == "modelled"
				defer func() { modelledKeepalives = false }()
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if how == "emulated" {
					e.K.Post(0, sim.FireFunc(func() {}))
					if err := e.RunFor(0); err != nil {
						t.Fatal(err)
					}
				}
				start := e.K.Events()
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				l := e.links[linkKey(1, 2)]
				read := func(what string) {
					checkEstablishedCounts(t, e, what)
					var states []string
					for _, asn := range e.ASNs() {
						for _, p := range e.Routers[asn].Sessions() {
							states = append(states, p.State().String())
						}
					}
					landed, _ := l.mating.Landed() // KEEPALIVEs landed by arithmetic
					readings = append(readings, fmt.Sprintf("%s link %d/%d sessions %v", readLiveness(e, what), l.Delivered+landed, l.Dropped, states))
				}
				read("started")
				if err := a.act(e); err != nil {
					t.Fatal(err)
				}
				read(a.name)
				first := 2*d + cfg.Timers.HoldTime/3 + d // the first KEEPALIVEs of the pair land
				for _, at := range []time.Duration{0, d - 1, d, d + 1, 2*d - 1, 2 * d, 4 * d, first - 1, first, first + 1} {
					if err := e.K.RunUntil(sim.Epoch.Add(at)); err != nil {
						t.Fatal(err)
					}
					read(at.String())
				}
				if frames, _ := l.mating.Landed(); how == "computed" && a.name == "nothing" && frames == 0 {
					t.Fatal("the computed pair is not quiet once Established")
				}
				return readings, e.K.Events() - start
			}
			computed, computedEvents := play("computed")
			emulated, emulatedEvents := play("emulated")
			modelled, _ := play("modelled")
			for i := range computed {
				if computed[i] != emulated[i] {
					t.Fatalf("reading %d:\ncomputed: %s\nemulated: %s", i, computed[i], emulated[i])
				}
				if computed[i] != modelled[i] {
					t.Fatalf("reading %d:\ncomputed: %s\nmodelled: %s", i, computed[i], modelled[i])
				}
			}
			if !strings.HasSuffix(computed[0], "sessions [Idle Idle]") {
				t.Fatalf("a session left Idle before the clock ran t₀: %s", computed[0])
			}
			if a.name != "nothing" {
				return
			}
			if at2d := computed[7]; !strings.HasSuffix(at2d, "sessions [Established Established]") {
				t.Fatalf("the pair is not Established at t₀+2d: %s", at2d)
			}
			if computedEvents != 3 || emulatedEvents != 10 {
				t.Fatalf("the handshake ran %d kernel events computed and %d emulated, want 3 and 10", computedEvents, emulatedEvents)
			}
		})
	}
}
