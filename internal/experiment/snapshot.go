// Checkpointing by recipe: an experiment is deterministic to the byte,
// so the run that made a state is the whole of what it takes to make
// it again. Every command that succeeds is logged with the kernel's
// event count and clock at that moment; Snapshot encodes the build
// seed, that log, the few values callers change without a command, and
// the kernel counters the run reached. Restore builds the network
// afresh under the same seed, runs the kernel to each command's stamp
// and applies the command there, runs on to the recorded counters, and
// refuses a replay that does not land on them.
//
// Restoring under another seed forks the run: once the replay has
// landed, the kernel's stream and every link's are re-derived from the
// new seed at the draw counts they reached, so the continuation
// diverges exactly where randomness enters (MRAI jitter, loss draws)
// and nowhere else. The fork is logged too, so a restored experiment
// snapshots deterministically.
package experiment

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// SnapshotVersion is the current snapshot codec version, the first
// that records a run's recipe. Decode rejects every other value.
const SnapshotVersion = 3

// Command is one logged experiment command: its kind, its arguments,
// and the kernel's event count and clock when it ran.
type Command struct {
	// Kind names the command (a key of commands).
	Kind string `json:"kind"`
	// Events stamps the command with the kernel's executed-event count.
	Events uint64 `json:"events"`
	// NowNS stamps it with the kernel's clock, in nanoseconds since
	// sim.Epoch.
	NowNS int64 `json:"now_ns"`
	// A is the AS the command names: the AS, a link's first end, or a
	// probe's source.
	A idr.ASN `json:"a,omitempty"`
	// B is a link's second end or a probe's destination.
	B idr.ASN `json:"b,omitempty"`
	// Prefix is AnnounceForeign's prefix.
	Prefix netip.Prefix `json:"prefix,omitzero"`
	// Seed is a fork's seed.
	Seed int64 `json:"seed,omitempty"`
}

// commands applies each kind of command. The experiment's command
// methods run through it (do), so a replay applies what the run did.
var commands = map[string]func(e *Experiment, c Command) error{
	"start":            func(e *Experiment, _ Command) error { return e.start() },
	"announce":         func(e *Experiment, c Command) error { return e.announce(c.A) },
	"withdraw":         func(e *Experiment, c Command) error { return e.withdraw(c.A) },
	"announce-foreign": func(e *Experiment, c Command) error { return e.announceForeign(c.A, c.Prefix) },
	"fail-link":        func(e *Experiment, c Command) error { return e.failLink(c.A, c.B) },
	"restore-link":     func(e *Experiment, c Command) error { return e.restoreLink(c.A, c.B) },
	"session-reset":    func(e *Experiment, c Command) error { return e.sessionReset(c.A, c.B) },
	"inject-probe":     func(e *Experiment, c Command) error { return e.injectProbe(c.A, c.B) },
	"migrate-in":       func(e *Experiment, c Command) error { return e.migrateIn(c.A) },
	"migrate-out":      func(e *Experiment, c Command) error { return e.migrateOut(c.A) },
	"controller-down":  func(e *Experiment, _ Command) error { return e.controllerDown() },
	"controller-up":    func(e *Experiment, _ Command) error { return e.controllerUp() },
	"partition":        func(e *Experiment, _ Command) error { return e.partition() },
	"heal":             func(e *Experiment, _ Command) error { return e.heal() },
	"fork":             func(e *Experiment, c Command) error { e.fork(c.Seed); return nil },
}

// do applies c and, if it succeeds, logs it stamped with the kernel's
// counters. No command runs the kernel, so the stamp is the same
// before and after.
func (e *Experiment) do(c Command) error {
	apply, ok := commands[c.Kind]
	if !ok {
		return fmt.Errorf("experiment: unknown command %q", c.Kind)
	}
	if err := apply(e, c); err != nil {
		return err
	}
	c.Events, c.NowNS = e.K.Events(), int64(e.K.Elapsed())
	e.log = append(e.log, c)
	return nil
}

// fork re-derives the run's random streams from seed where they stand:
// the kernel's, every link's, and the partition cut's.
func (e *Experiment) fork(seed int64) {
	e.cfg.Seed = seed
	e.K.Reseed(seed)
	e.Net.Reseed(seed)
}

// ProbeFlow is one probe flow's counters and its probes in flight.
type ProbeFlow struct {
	// Src is the flow's source AS.
	Src idr.ASN `json:"src"`
	// Dst is its destination AS.
	Dst idr.ASN `json:"dst"`
	// Sent counts its probes sent.
	Sent uint64 `json:"sent"`
	// Delivered counts those delivered.
	Delivered uint64 `json:"delivered"`
	// InFlight lists the ids of its probes not yet delivered, sorted.
	InFlight []uint64 `json:"in_flight,omitempty"`
}

// Snapshot is the recipe of a started experiment's state.
type Snapshot struct {
	// Version is the codec version (SnapshotVersion).
	Version int `json:"version"`
	// Seed is the seed the experiment was built under.
	Seed int64 `json:"seed"`
	// Log is every command that succeeded, in the order they ran.
	Log []Command `json:"log"`
	// LastActivityNS is the convergence detector's last activity, in
	// nanoseconds since sim.Epoch (sim.TimeNone for none).
	LastActivityNS int64 `json:"last_activity_ns"`
	// Probes holds the probe engine's flows, sorted by (Src, Dst).
	Probes []ProbeFlow `json:"probes,omitempty"`
	// Kernel is where the run stood: clock, counters, RNG position.
	Kernel sim.KernelState `json:"kernel"`
}

// Snapshot records the experiment's recipe. It requires a started
// experiment and changes nothing in it.
func (e *Experiment) Snapshot() (*Snapshot, error) {
	if !e.started {
		return nil, fmt.Errorf("experiment: snapshot of an unstarted experiment")
	}
	snap := &Snapshot{
		Version:        SnapshotVersion,
		Seed:           e.seed,
		Log:            slices.Clone(e.log),
		LastActivityNS: sim.TimeToNS(e.Detector.LastActivity()),
		Kernel:         e.K.State(),
	}
	stats := e.Probes.Stats()
	at := make(map[monitor.FlowKey]int, len(stats))
	for _, key := range idr.SortedKeysFunc(stats, func(a, b monitor.FlowKey) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	}) {
		at[key] = len(snap.Probes)
		snap.Probes = append(snap.Probes, ProbeFlow{Src: key.Src, Dst: key.Dst, Sent: stats[key].Sent, Delivered: stats[key].Delivered})
	}
	inFlight := e.Probes.InFlight() // every flow in flight has counters
	for _, id := range idr.SortedKeys(inFlight) {
		p := &snap.Probes[at[inFlight[id]]]
		p.InFlight = append(p.InFlight, id)
	}
	return snap, nil
}

// Restore builds a runnable experiment that continues snap. It builds
// the network from cfg under the snapshot's seed (cfg must describe the
// topology, membership and policy the snapshot was taken under), runs
// the kernel to each logged command's stamp and applies the command
// there, and runs on to the recorded kernel counters; a replay that
// does not land on them is refused. Start is a logged command, so the
// restored experiment is started.
//
// cfg.Seed chooses the continuation's random streams: the snapshot's
// own seed continues the original run byte-identically; a different
// seed forks it, diverging exactly where randomness enters.
func Restore(cfg Config, snap *Snapshot) (*Experiment, error) {
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("experiment: unsupported snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	build := cfg
	build.Seed = snap.Seed
	e, err := New(build)
	if err != nil {
		return nil, err
	}
	for i, c := range snap.Log {
		if err := e.advance(c.Events, c.NowNS); err != nil {
			return nil, fmt.Errorf("experiment: restore: before command %d (%s): %w", i, c.Kind, err)
		}
		if err := e.do(c); err != nil {
			return nil, fmt.Errorf("experiment: restore: command %d (%s): %w", i, c.Kind, err)
		}
	}
	if err := e.advance(snap.Kernel.Events, snap.Kernel.NowNS); err != nil {
		return nil, fmt.Errorf("experiment: restore: %w", err)
	}
	if got := e.K.State(); got != snap.Kernel {
		return nil, fmt.Errorf("experiment: restore: the replay landed on %+v, the snapshot recorded %+v", got, snap.Kernel)
	}
	e.Detector.SetLastActivity(sim.TimeFromNS(snap.LastActivityNS))
	stats, inFlight := map[monitor.FlowKey]monitor.ProbeStats{}, map[uint64]monitor.FlowKey{}
	for _, p := range snap.Probes {
		key := monitor.FlowKey{Src: p.Src, Dst: p.Dst}
		stats[key] = monitor.ProbeStats{Sent: p.Sent, Delivered: p.Delivered}
		for _, id := range p.InFlight {
			inFlight[id] = key
		}
	}
	e.Probes.SetCounters(stats, inFlight)
	if cfg.Seed != e.cfg.Seed {
		if err := e.do(Command{Kind: "fork", Seed: cfg.Seed}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// advance runs the kernel to a logged stamp: event by event to its
// count, then, if the clock moved on without an event, the clock to its
// instant. It fails where the run cannot land on the stamp, having run
// at most one event past it.
func (e *Experiment) advance(events uint64, nowNS int64) error {
	k := e.K
	for k.Events() < events && int64(k.Elapsed()) <= nowNS && k.Step() {
	}
	if k.Events() == events && int64(k.Elapsed()) < nowNS {
		// RunUntil would run every event due by then: the budget stops
		// it after the first, which the stamp says is not there.
		k.MaxEvents = events + 1
		err := k.RunUntil(sim.TimeFromNS(nowNS))
		k.MaxEvents = 0
		if err != nil && err != sim.ErrEventBudget {
			return err
		}
	}
	if k.Events() != events || int64(k.Elapsed()) != nowNS {
		return fmt.Errorf("the kernel reached %d events at %dns, not the logged %d at %dns",
			k.Events(), int64(k.Elapsed()), events, nowNS)
	}
	return nil
}

// EncodeSnapshot serializes a snapshot with the versioned JSON codec.
// The encoding is deterministic: every collection inside a Snapshot is
// in run or sorted order.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSnapshot parses a versioned snapshot in one pass. Malformed or
// truncated input yields an error, never a panic; so do a version
// other than SnapshotVersion, a command of unknown kind, and a stamp
// that goes back in events or time (a kernel starts at zero, and the
// recorded counters are the last stamp).
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("experiment: snapshot decode: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("experiment: unsupported snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	var last Command
	for i, c := range s.Log {
		if _, ok := commands[c.Kind]; !ok {
			return nil, fmt.Errorf("experiment: snapshot decode: command %d has unknown kind %q", i, c.Kind)
		}
		if c.Events < last.Events || c.NowNS < last.NowNS {
			return nil, fmt.Errorf("experiment: snapshot decode: command %d's stamp goes back in events or time", i)
		}
		last = c
	}
	if s.Kernel.Events < last.Events || s.Kernel.NowNS < last.NowNS {
		return nil, fmt.Errorf("experiment: snapshot decode: the kernel counters go back from the last command's stamp")
	}
	return &s, nil
}
