package sim

import (
	"math/rand"
	"time"
)

// This file is what a snapshot needs of the kernel: the execution state
// a restore must land on (virtual clock, scheduling sequence, event
// count, RNG position) and the re-seed that forks a run. A restore
// rebuilds everything else by running the recorded commands again
// (experiment.Restore).

// CountingSource is a deterministic rand.Source64 that counts the
// generator steps it has served. Both Int63 and Uint64 of the stdlib
// source consume exactly one step of the underlying additive
// generator (Int63 is the masked Uint64), so a *rand.Rand over a
// CountingSource emits the byte-identical stream of one over a plain
// rand.NewSource while every consumed value is counted. That makes
// (seed, draws) a complete, replayable serialization of the stream
// position: a re-seed discards the first `draws` steps (Kernel.Reseed).
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
// already past that point.
func (c *CountingSource) FastForward(draws uint64) {
	if c.n > draws {
		panic("sim: CountingSource.FastForward target already passed")
	}
	for c.n < draws {
		c.step().Int63()
	}
}

// TimeNone is the serialized form of the zero time.Time in timestamp
// fields that otherwise hold nanoseconds since Epoch.
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
// not part of it: a run that lands on these counters has the same one.
type KernelState struct {
	// NowNS is the virtual clock as nanoseconds since Epoch.
	NowNS int64 `json:"now_ns"`
	// Seq is the last scheduling sequence number assigned.
	Seq uint64 `json:"seq"`
	// Events is the number of events executed so far.
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

// Reseed re-derives the kernel's random stream from seed at the
// position it has reached: the draws the run has made so far stay
// made, and every later draw comes from seed's stream. Restoring a
// snapshot under another seed forks the run this way.
func (k *Kernel) Reseed(seed int64) {
	draws := k.src.Draws()
	k.src.Seed(seed)
	k.src.FastForward(draws)
}

// TimerState reports the pending deadline and scheduling sequence of
// a virtual-time timer. ok is false for an inactive (fired, stopped or
// nil) timer or a non-kernel timer.
func TimerState(t Timer) (at time.Time, seq uint64, ok bool) {
	ev, isSim := t.(*event)
	if !isSim || ev == nil || !ev.Active() {
		return time.Time{}, 0, false
	}
	return Epoch.Add(time.Duration(ev.at)), ev.seq, true
}
