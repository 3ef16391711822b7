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
// Pending events live in one binary heap keyed by (nanoseconds since
// Epoch, seq), held inline in its entries (heap.go); Reset re-keys a
// resident event in place, and a stopped event stays in the heap until
// it reaches the top, where it is discarded. TestKernelModel holds the
// kernel to a sorted-slice oracle.
type Kernel struct {
	// nowNS is the virtual clock in nanoseconds since Epoch, the unit
	// every deadline is kept in.
	nowNS int64
	seq   uint64
	queue eventHeap

	// free chains the events of fired Post calls through next, for the
	// next Post to reuse. Nothing else references a posted event once
	// it has been popped from the heap (it has no Timer handle and a
	// single revision), so it is recycled the moment it fires. The
	// chain is unbounded: it peaks at the most posted events pending at
	// once.
	free *event

	rng    *rand.Rand
	src    *CountingSource // holds the seed the stream was created with
	events uint64          // total events executed

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
// is consulted by the Run family after every event, so a kernel with no
// budget returns before any check (and the call inlines).
func (k *Kernel) overBudget() error {
	if k.MaxEvents == 0 && k.WallLimit == 0 {
		return nil
	}
	return k.checkBudget()
}

// checkBudget is overBudget for a kernel with a budget.
func (k *Kernel) checkBudget() error {
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
// has advanced and a fork can re-seed it there (Reseed).
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

// Pending returns the number of scheduled, not-yet-fired events. Events
// stopped but not yet discarded from the heap are still counted.
func (k *Kernel) Pending() int { return len(k.queue) }

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
	k.schedule(ev)
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
		k.free = ev.next
	} else {
		ev = new(event)
	}
	*ev = event{at: k.deadline(d), do: f, posted: true, kernel: k, index: -1}
	k.schedule(ev)
}

// schedule assigns the next scheduling sequence number and files the
// event in the heap.
func (k *Kernel) schedule(ev *event) {
	k.seq++
	ev.seq = k.seq
	k.queue.push(ev)
}

// peek returns the earliest live pending event without popping it,
// first discarding the stopped events at the top of the heap, or nil
// when the kernel is quiescent.
func (k *Kernel) peek() *event {
	for len(k.queue) > 0 {
		if ev := k.queue[0].ev; !ev.cancelled {
			return ev
		}
		k.queue.pop()
	}
	return nil
}

// Step executes the single earliest pending event, advancing the clock
// to its timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	ev := k.peek()
	if ev == nil {
		return false
	}
	k.queue.pop()
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
		ev.next, k.free = k.free, ev
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
		ev := k.peek()
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
// the kernel's heap (-1 once popped), which lets Reset reschedule the
// event in place instead of allocating a replacement. A fired posted
// event's next chains the kernel's free list.
type event struct {
	at     int64
	seq    uint64
	do     Firer
	kernel *Kernel
	next   *event
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
// place with fix; otherwise it is pushed again. Either way the
// MRAI-churn path allocates nothing, and the sequence counter advances
// exactly once per Reset on both paths. Stop takes no number, so re-arming a timer with Reset
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
		k.schedule(ev)
	}
	return was
}

func (ev *event) Active() bool { return !ev.cancelled && !ev.fired }
