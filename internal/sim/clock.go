// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocol code in this repository is written against the Clock
// interface and runs in virtual time (fast, reproducible sweeps; see
// Kernel); tests substitute fakes.
//
// The virtual-time kernel is single-threaded and cooperative: events run
// one at a time in timestamp order. This mirrors the cooperative
// multitasking design the paper adopts ("we can focus more on research
// questions than on state consistency and concurrency issues") and makes
// every experiment deterministic given a seed.
package sim

import "time"

// Clock abstracts time for protocol code. *Kernel (virtual time) is
// the implementation.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time

	// Schedule arms a timer that runs f.Fire once, d from now, and
	// returns the Timer that can cancel or reschedule it. f runs on the
	// clock's executor: for Kernel that is the event loop goroutine. A
	// timer its owner re-arms for the life of a session fires through a
	// pointer-shaped Firer the owner converts itself to, so arming it
	// allocates the timer and nothing else.
	Schedule(d time.Duration, f Firer) Timer

	// AfterFunc is Schedule for a func: the same timer, the same
	// sequence number, fn called where f.Fire would be.
	AfterFunc(d time.Duration, fn func()) Timer

	// Post schedules f.Fire to run once, d from now, and returns no
	// handle: the event cannot be stopped or rescheduled, which lets
	// the clock reuse its bookkeeping once Fire has run. It is ordered
	// with Schedule events exactly as if it had been one. This is the
	// call for work that is never cancelled — a frame in flight, a
	// queued job; anything that needs Stop or Reset uses Schedule.
	Post(d time.Duration, f Firer)

	// Go schedules fn to run as soon as possible (a zero-delay event).
	// It is the clock's analogue of the go statement.
	Go(fn func())
}

// Firer is a unit of scheduled work (see Clock.Schedule and
// Clock.Post). A caller that schedules the same kind of work over and
// over makes it a method on a struct it recycles, or on a named pointer
// type over the struct that owns the work, so scheduling allocates
// nothing beyond the clock's event; Fire may schedule its own receiver
// again.
type Firer interface {
	Fire()
}

// FireFunc adapts a func to a Firer. A func value is pointer-shaped, so
// the conversion allocates nothing.
type FireFunc func()

// Fire calls fn.
func (fn FireFunc) Fire() { fn() }

// Timer is a cancellable scheduled callback, analogous to *time.Timer
// created by time.AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing.
	Stop() bool

	// Reset reschedules the callback to fire d from now. It reports
	// whether the timer had been active.
	Reset(d time.Duration) bool

	// Active reports whether the callback is still pending.
	Active() bool
}
