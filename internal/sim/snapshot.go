package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"time"
)

// This file is the kernel half of converged-state checkpointing: it
// exposes exactly the execution state a snapshot must capture (virtual
// clock, scheduling sequence, event count, RNG position) and the
// restore protocol that rebuilds it. Pending timer callbacks are NOT
// serialized here — function values cannot be; instead each component
// records its own timers' (deadline, seq) pairs via TimerState and
// re-arms equivalent callbacks on restore, and the kernel then adopts
// the captured counters so the replayed schedule is byte-identical.

// CountingSource is a deterministic rand.Source64 that counts the
// generator steps it has served. Both Int63 and Uint64 of the stdlib
// source consume exactly one step of the underlying additive
// generator (Int63 is the masked Uint64), so a *rand.Rand over a
// CountingSource emits the byte-identical stream of one over a plain
// rand.NewSource while every consumed value is counted. That makes
// (seed, draws) a complete, replayable serialization of the stream
// position: restore re-seeds and discards the first `draws` steps.
//
// (seed, draws) is also all an undrawn source holds: the stdlib
// generator (607 words of state, ~13µs to seed) is built by the first
// draw, so a stream nobody draws from — every link of a lossless run —
// costs three words.
type CountingSource struct {
	seed int64
	n    uint64
	src  rand.Source64 // nil until the first draw since the last seed
}

// NewCountingSource returns a counting source seeded with seed.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{seed: seed}
}

// step counts one generator step and returns the generator to take it
// from, building it from the seed if this is the first.
func (c *CountingSource) step() rand.Source64 {
	if c.src == nil {
		// rand.NewSource's concrete source implements Source64.
		c.src = rand.NewSource(c.seed).(rand.Source64)
	}
	c.n++
	return c.src
}

// Int63 returns the next value from the underlying source, counting
// one generator step.
func (c *CountingSource) Int63() int64 { return c.step().Int63() }

// Uint64 returns the next raw 64-bit value from the underlying
// source, counting one generator step.
func (c *CountingSource) Uint64() uint64 { return c.step().Uint64() }

// Seed re-seeds the stream and resets the draw count.
func (c *CountingSource) Seed(seed int64) {
	*c = CountingSource{seed: seed}
}

// Draws returns how many generator steps have been served since the
// last seed.
func (c *CountingSource) Draws() uint64 { return c.n }

// FastForward advances the stream until exactly draws generator steps
// have been served since the last seed. It panics if the stream is
// already past that point — a snapshot/restore protocol error.
func (c *CountingSource) FastForward(draws uint64) {
	if c.n > draws {
		panic("sim: CountingSource.FastForward target already passed")
	}
	for c.n < draws {
		c.step().Int63()
	}
}

// TimeNone is the serialized form of the zero time.Time in snapshot
// timestamp fields (which otherwise hold nanoseconds since Epoch).
const TimeNone = int64(-1) << 62

// TimeToNS serializes a timestamp as nanoseconds since Epoch,
// preserving the zero value as TimeNone.
func TimeToNS(t time.Time) int64 {
	if t.IsZero() {
		return TimeNone
	}
	return t.Sub(Epoch).Nanoseconds()
}

// TimeFromNS is the inverse of TimeToNS.
func TimeFromNS(ns int64) time.Time {
	if ns == TimeNone {
		return time.Time{}
	}
	return Epoch.Add(time.Duration(ns))
}

// KernelState is the serializable execution state of a Kernel: the
// virtual clock, the scheduling-sequence and executed-event counters,
// and the RNG position as (seed, draws). The pending event queue is
// not part of it — timers are re-armed by their owning components.
type KernelState struct {
	// NowNS is the virtual clock as nanoseconds since Epoch.
	NowNS int64 `json:"now_ns"`
	// Seq is the last scheduling sequence number assigned.
	Seq uint64 `json:"seq"`
	// Events is the number of events executed so far (restoring it
	// preserves the wall-budget check phase, which is the only thing
	// it feeds).
	Events uint64 `json:"events"`
	// Seed is the seed the kernel RNG stream was created with.
	Seed int64 `json:"seed"`
	// Draws is the number of Int63 draws the kernel RNG has consumed.
	Draws uint64 `json:"draws"`
}

// State captures the kernel's execution state for a snapshot.
func (k *Kernel) State() KernelState {
	return KernelState{
		NowNS:  k.nowNS,
		Seq:    k.seq,
		Events: k.events,
		Seed:   k.src.seed,
		Draws:  k.src.Draws(),
	}
}

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.src.seed }

// BeginRestore starts restoring st onto a freshly built kernel: it
// sets the virtual clock and replays the RNG stream to the captured
// position (re-deriving it from seed rather than deserializing
// generator internals). Components then re-arm their timers with
// AfterFunc — deadlines are computed against the restored clock — and
// the caller finishes with FinishRestore. When the restored run should
// consume a DIFFERENT seed (a fork), pass it as seed; the stream is
// re-derived from the new seed at the same position, so fork runs
// diverge exactly where randomness enters and nowhere else.
func (k *Kernel) BeginRestore(st KernelState, seed int64) {
	k.nowNS = st.NowNS
	k.src.Seed(seed)
	k.src.FastForward(st.Draws)
}

// FinishRestore adopts the captured scheduling counters after every
// timer has been re-armed. Events re-armed during restore received
// fresh low sequence numbers in arm order (which the experiment layer
// sorts by original (deadline, seq), preserving same-instant firing
// order); adopting the captured Seq guarantees every event scheduled
// after the restore point sorts behind them, exactly as in the
// original run.
func (k *Kernel) FinishRestore(st KernelState) {
	if st.Seq > k.seq {
		k.seq = st.Seq
	}
	k.events = st.Events
}

// TimerState reports the pending deadline and scheduling sequence of
// a virtual-time timer, for snapshotting. ok is false for an inactive
// (fired, stopped or nil) timer or a non-kernel timer — such timers
// are simply absent from the snapshot.
func TimerState(t Timer) (at time.Time, seq uint64, ok bool) {
	ev, isSim := t.(*event)
	if !isSim || ev == nil || !ev.Active() {
		return time.Time{}, 0, false
	}
	return Epoch.Add(time.Duration(ev.at)), ev.seq, true
}

// TimerRef is the serialized identity of one pending timer: its
// absolute deadline as nanoseconds since Epoch, and the scheduling
// sequence it held in the original kernel (which orders same-instant
// events).
type TimerRef struct {
	AtNS int64  `json:"at_ns"`
	Seq  uint64 `json:"seq"`
}

// RefOf captures a TimerRef for an active virtual-time timer, or nil
// for an inactive one.
func RefOf(t Timer) *TimerRef {
	at, seq, ok := TimerState(t)
	if !ok {
		return nil
	}
	return &TimerRef{AtNS: at.Sub(Epoch).Nanoseconds(), Seq: seq}
}

// Deadline returns the timer's absolute deadline.
func (r *TimerRef) Deadline() time.Time { return Epoch.Add(time.Duration(r.AtNS)) }

// Rearm appends to arms the arm that re-creates the referenced timer in
// *slot, running f.Fire at the original deadline: the Firer the live
// timer ran, so the restored one fires alike. A nil ref — no timer was
// pending — appends nothing.
func (r *TimerRef) Rearm(arms []TimerArm, clock Clock, slot *Timer, f Firer) []TimerArm {
	if r == nil {
		return arms
	}
	at := r.Deadline()
	return append(arms, TimerArm{At: at, Seq: r.Seq, Arm: func() {
		*slot = clock.Schedule(at.Sub(clock.Now()), f)
	}})
}

// TimerArm is one deferred timer re-arm collected during a restore:
// the original (deadline, sequence) pair for ordering, and the Arm
// callback that actually schedules the replacement timer. Components
// contribute arms instead of scheduling directly so the restore can
// execute ALL arms globally sorted by (deadline, original sequence) —
// preserving the relative firing order of same-instant events across
// components — before the kernel adopts the captured sequence counter.
type TimerArm struct {
	At  time.Time
	Seq uint64
	Arm func()
}

// ArmAll sorts the collected arms by (deadline, original sequence)
// and executes them in that order.
func ArmAll(arms []TimerArm) {
	slices.SortFunc(arms, func(a, b TimerArm) int {
		return cmp.Or(a.At.Compare(b.At), cmp.Compare(a.Seq, b.Seq))
	})
	for _, a := range arms {
		a.Arm()
	}
}
