package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Epoch is the instant at which every Kernel starts. A fixed epoch keeps
// runs reproducible and log timestamps comparable across experiments.
var Epoch = time.Date(2014, 8, 18, 0, 0, 0, 0, time.UTC)

// Kernel is a deterministic discrete-event scheduler implementing Clock.
//
// Events execute strictly in (time, sequence) order on the goroutine that
// calls Run, Step or RunUntil. Two events scheduled for the same instant
// run in the order they were scheduled. The zero Kernel is not usable;
// call NewKernel.
//
// Internally the kernel keeps three structures, none of which changes
// the executed (time, seq) order: a binary heap for short-range events,
// keyed by (nanoseconds since Epoch, seq) held inline in its entries
// (heap.go), a hierarchical timer wheel (wheel.go) that stages
// long-delay timers in O(1) on lists threaded through the events
// themselves, so that filing, re-filing and releasing a slot into the
// heap allocate nothing, and a drain batch that pops all events
// sharing the earliest timestamp in one pass. The batch still costs
// one heap pop per event; what it buys is one wheel sync and one
// cancelled-head sweep per instant instead of one per event, and a
// heap already emptied of the instant's events while they push their
// successors (a router fanning UPDATEs to its peers), so those pushes
// sift through a smaller heap.
// Wheel and batch are pinned byte-identical against the serial
// heap-only reference by the equivalence tests in wheel_test.go; the
// heap itself against a sorted-slice oracle by TestKernelModel.
type Kernel struct {
	// nowNS is the virtual clock in nanoseconds since Epoch, the unit
	// every deadline is kept in.
	nowNS int64
	seq   uint64
	queue eventHeap
	wheel timerWheel

	// batch holds the run of same-timestamp events most recently popped
	// from the heap; batchPos is the next entry to execute. Entries
	// whose event was stopped or rescheduled by an earlier event in the
	// batch are detected by sequence mismatch and skipped.
	batch    []batchEntry
	batchPos int

	// free chains the events of fired Post calls through wnext, for the
	// next Post to reuse. Nothing else references a posted event once
	// it has been consumed from the drain batch (it has no Timer handle
	// and a single revision, and is in no wheel slot), so it is
	// recycled the moment it fires. The chain is unbounded: it peaks at
	// the most posted events pending at once.
	free *event

	rng    *rand.Rand
	src    *CountingSource // holds the seed the stream was created with
	events uint64          // total events executed

	// serialDrain and noWheel select the reference implementations
	// the equivalence tests in wheel_test.go compare against — one
	// heap pop per scheduler pass, every timer filed in the heap. Only
	// those tests set them.
	serialDrain bool
	noWheel     bool

	// MaxEvents aborts Run with ErrEventBudget once this many events
	// have executed, guarding against livelock (e.g. mutually
	// re-scheduling timers). Zero means no limit.
	MaxEvents uint64

	// WallLimit aborts the Run family with ErrWallBudget once that much
	// real (wall-clock) time has been spent stepping events, guarding a
	// runaway cell against hanging its worker when the virtual clock
	// stops advancing. Zero means no limit. The guard is checked every
	// wallCheckEvery events, so it never perturbs a run that finishes
	// within its budget — virtual-time results stay deterministic.
	WallLimit time.Duration
	wallStart time.Time
}

// ErrEventBudget is returned by the Run family when MaxEvents is hit.
var ErrEventBudget = fmt.Errorf("sim: event budget exhausted")

// ErrWallBudget is returned by the Run family when WallLimit is
// exceeded.
var ErrWallBudget = fmt.Errorf("sim: wall-clock budget exhausted")

// wallCheckEvery is how many events pass between wall-clock checks.
const wallCheckEvery = 4096

// overBudget reports whether either execution budget is exhausted. It
// is consulted by the Run family after every event.
func (k *Kernel) overBudget() error {
	if k.MaxEvents > 0 && k.events >= k.MaxEvents {
		return ErrEventBudget
	}
	if k.WallLimit > 0 && k.events%wallCheckEvery == 0 {
		if k.wallStart.IsZero() {
			//lint:walltime the wall budget measures real runtime by design; it aborts a run, never shapes its results
			k.wallStart = time.Now()
			//lint:walltime the wall budget measures real runtime by design; it aborts a run, never shapes its results
		} else if time.Since(k.wallStart) > k.WallLimit {
			return ErrWallBudget
		}
	}
	return nil
}

// NewKernel returns a Kernel whose clock reads Epoch and whose random
// source is seeded with seed. The source is draw-counted (see
// CountingSource) so a snapshot can record exactly how far the stream
// has advanced and a restore can replay it to the same point.
func NewKernel(seed int64) *Kernel {
	src := NewCountingSource(seed)
	return &Kernel{
		rng: rand.New(src),
		src: src,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return Epoch.Add(time.Duration(k.nowNS)) }

// Rand returns the kernel's deterministic random source. All randomness
// in an experiment (jitter, loss, tie-breaks) must come from here so a
// seed fully determines a run.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Elapsed returns how much virtual time has passed since Epoch.
func (k *Kernel) Elapsed() time.Duration { return time.Duration(k.nowNS) }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.events }

// Pending returns the number of scheduled, not-yet-fired events across
// the heap, the timer wheel and the current drain batch. Like the
// heap's lazy cancellation, events stopped but not yet discarded are
// still counted.
func (k *Kernel) Pending() int {
	return len(k.queue) + k.wheel.count + (len(k.batch) - k.batchPos)
}

// deadline returns the instant d from now, in nanoseconds since Epoch;
// negative d counts as 0 and a sum past the int64 range saturates.
func (k *Kernel) deadline(d time.Duration) int64 {
	if d <= 0 {
		return k.nowNS
	}
	if int64(d) > math.MaxInt64-k.nowNS {
		return math.MaxInt64
	}
	return k.nowNS + int64(d)
}

// Go schedules fn as a zero-delay event.
func (k *Kernel) Go(fn func()) { k.AfterFunc(0, fn) }

// Schedule arms a timer that runs f.Fire d from now. Negative d is
// treated as 0. The timer is its event, the one allocation.
func (k *Kernel) Schedule(d time.Duration, f Firer) Timer {
	if f == nil {
		panic("sim: Schedule with nil Firer")
	}
	ev := &event{at: k.deadline(d), do: f, kernel: k, index: -1}
	k.schedule(ev, d)
	return ev
}

// AfterFunc schedules fn to run d from now: Schedule over FireFunc.
func (k *Kernel) AfterFunc(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: AfterFunc with nil function")
	}
	return k.Schedule(d, FireFunc(fn))
}

// Post schedules f.Fire to run d from now on a recycled event. Negative
// d is treated as 0. The event takes its (time, seq) key from the same
// schedule call Schedule uses, so replacing a timer whose handle was
// dropped by a Post moves nothing in the executed trace.
func (k *Kernel) Post(d time.Duration, f Firer) {
	if f == nil {
		panic("sim: Post with nil Firer")
	}
	ev := k.free
	if ev != nil {
		k.free = ev.wnext
	} else {
		ev = new(event)
	}
	*ev = event{at: k.deadline(d), do: f, posted: true, kernel: k, index: -1}
	k.schedule(ev, d)
}

// schedule assigns the next scheduling sequence number and files the
// event: long delays go through the timer wheel, near ones into the
// heap. The sequence counter advances identically on both paths, so
// the executed (time, seq) trace does not depend on which structure
// held the event.
func (k *Kernel) schedule(ev *event, d time.Duration) {
	k.seq++
	ev.seq = k.seq
	if ev.wpprev != nil {
		// Reset of a wheel-resident timer: it leaves its old slot.
		k.wheel.unlink(ev)
	}
	if !k.noWheel && d >= wheelMinDelay && k.wheel.insert(ev) {
		return
	}
	k.queue.push(ev)
}

// batchEntry pins one event revision in the drain batch.
type batchEntry struct {
	ev  *event
	seq uint64
}

// nextEvent returns the earliest live pending event, consuming it from
// the drain batch (refilled from the heap and wheel as it empties), or
// nil when the kernel is quiescent.
func (k *Kernel) nextEvent() *event {
	for {
		for k.batchPos < len(k.batch) {
			e := k.batch[k.batchPos]
			k.batch[k.batchPos] = batchEntry{}
			k.batchPos++
			if e.ev.cancelled || e.ev.seq != e.seq {
				// Stopped or rescheduled by an earlier event in the
				// batch.
				continue
			}
			return e.ev
		}
		if len(k.batch) > 0 {
			k.batch = k.batch[:0]
			k.batchPos = 0
		}
		if !k.refill() {
			return nil
		}
	}
}

// refill pops the run of events sharing the earliest pending timestamp
// from the heap into the drain batch (a single event under
// serialDrain). It reports whether anything is pending.
func (k *Kernel) refill() bool {
	ev := k.peekQueue()
	if ev == nil {
		return false
	}
	k.queue.pop()
	k.batch = append(k.batch, batchEntry{ev, ev.seq})
	if k.serialDrain {
		return true
	}
	for len(k.queue) > 0 {
		top := k.queue[0]
		if top.ev.cancelled {
			k.queue.pop()
			continue
		}
		if top.at != ev.at {
			break
		}
		k.queue.pop()
		k.batch = append(k.batch, batchEntry{top.ev, top.seq})
	}
	return true
}

// peekNext returns the earliest live pending event without consuming
// it, or nil when the kernel is quiescent.
func (k *Kernel) peekNext() *event {
	for k.batchPos < len(k.batch) {
		e := k.batch[k.batchPos]
		if !e.ev.cancelled && e.ev.seq == e.seq {
			return e.ev
		}
		k.batch[k.batchPos] = batchEntry{}
		k.batchPos++
	}
	return k.peekQueue()
}

// peekQueue returns the earliest live event in the heap without
// popping it, first syncing the timer wheel: any wheel slot that could
// hold an entry due at or before the heap head is released into the
// heap, so the returned event is globally earliest by (time, seq).
func (k *Kernel) peekQueue() *event {
	for {
		var top *event
		for len(k.queue) > 0 {
			if k.queue[0].ev.cancelled {
				k.queue.pop()
				continue
			}
			top = k.queue[0].ev
			break
		}
		if k.wheel.count == 0 {
			return top
		}
		if top != nil {
			if k.wheelRelease(tickOf(top.at)) == 0 {
				return top
			}
			continue // the release may have surfaced an earlier event
		}
		start, ok := k.wheel.next()
		if !ok {
			return nil
		}
		k.wheelRelease(start)
	}
}

// Step executes the single earliest pending event, advancing the clock
// to its timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	ev := k.nextEvent()
	if ev == nil {
		return false
	}
	if ev.at > k.nowNS {
		k.nowNS = ev.at
	}
	k.events++
	ev.fired = true
	do := ev.do
	if ev.posted {
		// Recycled before Fire runs, so a Fire that posts again (a
		// handler answering a frame) reuses this very event.
		ev.do = nil
		ev.wnext, k.free = k.free, ev
	}
	do.Fire()
	return true
}

// Run executes events until the queue is empty (the simulation is
// quiescent) or an execution budget is exhausted.
func (k *Kernel) Run() error {
	for k.Step() {
		if err := k.overBudget(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t. Events scheduled beyond t remain pending.
func (k *Kernel) RunUntil(t time.Time) error { return k.runUntil(int64(t.Sub(Epoch))) }

// runUntil is RunUntil with t in nanoseconds since Epoch.
func (k *Kernel) runUntil(t int64) error {
	for {
		ev := k.peekNext()
		if ev == nil || ev.at > t {
			break
		}
		k.Step()
		if err := k.overBudget(); err != nil {
			return err
		}
	}
	if t > k.nowNS {
		k.nowNS = t
	}
	return nil
}

// RunFor executes events for the next d of virtual time. A negative d
// runs nothing.
func (k *Kernel) RunFor(d time.Duration) error {
	if d < 0 {
		return nil
	}
	return k.runUntil(k.deadline(d))
}

// RunWhile executes events as long as cond returns true and events
// remain. It evaluates cond after every event.
func (k *Kernel) RunWhile(cond func() bool) error {
	for cond() {
		if !k.Step() {
			return nil
		}
		if err := k.overBudget(); err != nil {
			return err
		}
	}
	return nil
}

// event is a scheduled callback. For Schedule it is also the Timer
// returned — one allocation per timer; for Post (posted set) it has no
// handle and returns to the kernel's free list when it fires. at is the
// deadline in nanoseconds since Epoch. index is the event's position in
// the kernel's heap (-1 once popped or while wheel-resident), which
// lets Reset reschedule the event in place instead of allocating a
// replacement. wnext and wpprev link the event into its timer-wheel
// slot while it is wheel-resident (wpprev is nil otherwise), so Reset
// moves it between slots without allocating either; a fired posted
// event's wnext chains the kernel's free list. The struct fills its
// 64-byte size class exactly.
type event struct {
	at     int64
	seq    uint64
	do     Firer
	kernel *Kernel
	wnext  *event
	wpprev **event
	index  int32

	cancelled bool
	fired     bool // set by Step just before do.Fire runs
	posted    bool // scheduled by Post: no Timer handle, recycled on firing
}

func (ev *event) Stop() bool {
	if ev.cancelled || ev.fired {
		return false
	}
	ev.cancelled = true
	return true
}

// Reset reschedules the timer, reusing its event: if the event is
// still in the heap (pending or lazily cancelled) it is re-keyed in
// place with fix; otherwise it is unlinked from its wheel slot, if it
// has one, and filed again. Either way the MRAI-churn path allocates
// nothing, and the sequence counter advances exactly once per Reset on
// every path. Stop takes no number, so re-arming a timer with Reset
// takes the one that Stop and a fresh AfterFunc would.
func (ev *event) Reset(d time.Duration) bool {
	k := ev.kernel
	was := ev.Active()
	ev.cancelled = false
	ev.fired = false
	ev.at = k.deadline(d)
	if ev.index >= 0 {
		k.seq++
		ev.seq = k.seq
		k.queue.fix(ev)
	} else {
		k.schedule(ev, d)
	}
	return was
}

func (ev *event) Active() bool { return !ev.cancelled && !ev.fired }
