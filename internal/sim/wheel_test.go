package sim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// tapeRun is what one run of the random tape leaves behind: every
// firing as (elapsed, id, the kernel's sequence counter at that
// moment), and Pending() after every tape step.
type tapeRun struct {
	trace   [][3]int64
	pending []int
}

// tapeHop is the tape's fire-and-forget work: posted as itself, or run
// from an AfterFunc closure whose Timer is dropped.
type tapeHop struct {
	id  int
	run func(*tapeHop)
}

func (h *tapeHop) Fire() { h.run(h) }

// checkWheelLists fails unless every wheel slot is an intact list:
// each linked event is reachable exactly once, its wpprev points at the
// word that points at it, and the number linked is wheel.count. An
// event in the heap or the drain batch must be linked nowhere. It
// returns the linked events.
func checkWheelLists(t *testing.T, k *Kernel) map[*event]bool {
	t.Helper()
	linked := make(map[*event]bool, k.wheel.count)
	for l := range k.wheel.slots {
		for s := range k.wheel.slots[l] {
			for at := &k.wheel.slots[l][s]; *at != nil; at = &(*at).wnext {
				ev := *at
				if linked[ev] {
					t.Fatalf("event %p is linked into the wheel twice (again in slot %d/%d)", ev, l, s)
				}
				linked[ev] = true
				if ev.wpprev != at {
					t.Fatalf("event %p in wheel slot %d/%d: wpprev does not point at the word that links it", ev, l, s)
				}
				if ev.index >= 0 {
					t.Fatalf("event %p is in wheel slot %d/%d and at heap index %d", ev, l, s, ev.index)
				}
			}
		}
	}
	if len(linked) != k.wheel.count {
		t.Fatalf("%d events linked into the wheel, wheel.count %d", len(linked), k.wheel.count)
	}
	unlinked := func(ev *event, where string) {
		if ev.wnext != nil || ev.wpprev != nil {
			t.Fatalf("event %p in the %s still carries a wheel link", ev, where)
		}
	}
	for _, e := range k.queue {
		unlinked(e.ev, "heap")
	}
	for _, e := range k.batch[k.batchPos:] {
		if e.ev.seq == e.seq {
			unlinked(e.ev, "drain batch")
		}
	}
	return linked
}

// checkFreeList fails if a recycled event is still referenced by the
// heap, a wheel slot or the drain batch, or is on the free list twice.
func checkFreeList(t *testing.T, k *Kernel) {
	t.Helper()
	linked := checkWheelLists(t, k)
	free := make(map[*event]bool)
	for ev := k.free; ev != nil; ev = ev.wnext {
		if free[ev] {
			t.Fatalf("event %p is on the free list twice", ev)
		}
		free[ev] = true
		if linked[ev] || ev.wpprev != nil {
			t.Fatalf("event %p is on the free list and in the wheel", ev)
		}
	}
	for _, e := range k.queue {
		ev := e.ev
		if free[ev] {
			t.Fatalf("event %p is on the free list and in the heap", ev)
		}
	}
	for _, e := range k.batch {
		if free[e.ev] {
			t.Fatalf("event %p is on the free list and in the drain batch", e.ev)
		}
	}
}

// traceKernel runs a randomized schedule on k: timers that are stopped
// and reset, and fire-and-forget events that re-schedule themselves
// from inside their own firing — recycled Post events when post is set,
// AfterFunc closures otherwise. The schedule derives entirely from rng,
// so two kernels driven by equally-seeded generators execute the
// identical logical workload as long as they fire it in the same order.
func traceKernel(t *testing.T, k *Kernel, rng *rand.Rand, ops int, post bool) tapeRun {
	var run tapeRun
	var timers []Timer
	id := 0
	// Mix short heap-bound delays with long wheel-bound ones, on both
	// sides of wheelMinDelay.
	delay := func() time.Duration {
		if rng.Intn(2) == 0 {
			return time.Duration(rng.Intn(2000)) * time.Millisecond
		}
		return time.Duration(rng.Intn(120)) * time.Second
	}
	fired := func(n int) {
		run.trace = append(run.trace, [3]int64{int64(k.Elapsed()), int64(n), int64(k.seq)})
	}
	schedule := func() {
		n := id
		id++
		timers = append(timers, k.AfterFunc(delay(), func() { fired(n) }))
	}
	forget := func(h *tapeHop) {
		if post {
			k.Post(delay(), h)
		} else {
			k.AfterFunc(delay(), func() { h.run(h) })
		}
	}
	hop := func(h *tapeHop) {
		fired(h.id)
		checkFreeList(t, k) // the event that is firing was recycled a moment ago
		if rng.Intn(3) > 0 {
			forget(h)
		}
	}
	for i := 0; i < 8; i++ {
		schedule()
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(5) {
		case 0:
			schedule()
		case 1:
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Stop()
			}
		case 2:
			if len(timers) > 0 {
				d := time.Duration(rng.Intn(90)) * time.Second
				timers[rng.Intn(len(timers))].Reset(d)
			}
		case 3:
			k.RunFor(time.Duration(rng.Intn(5000)) * time.Millisecond)
		case 4:
			forget(&tapeHop{id: id, run: hop})
			id++
		}
		run.pending = append(run.pending, k.Pending())
		checkFreeList(t, k)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events pending after Run", k.Pending())
	}
	return run
}

// checkReferenceEquivalence asserts that any schedule of AfterFunc /
// Stop / Reset / Post interleaved with partial runs fires in exactly
// the same order, at the same instants and with the same event and
// sequence counters on the production kernel and on one switched to a
// reference path by setRef — and, on each of the two, whether the
// fire-and-forget events are recycled Post events or AfterFunc
// closures, which must also agree on Pending() at every step.
func checkReferenceEquivalence(t *testing.T, setRef func(*Kernel)) {
	t.Helper()
	f := func(seed int64) bool {
		var runs [4]tapeRun
		var kernels [4]*Kernel
		for i := range runs {
			k := NewKernel(1)
			if i >= 2 {
				setRef(k)
			}
			kernels[i] = k
			runs[i] = traceKernel(t, k, rand.New(rand.NewSource(seed)), 200, i%2 == 0)
		}
		for i := 1; i < len(runs); i++ {
			if !slices.Equal(runs[0].trace, runs[i].trace) ||
				kernels[0].Events() != kernels[i].Events() || kernels[0].seq != kernels[i].seq {
				return false
			}
		}
		return slices.Equal(runs[0].pending, runs[1].pending) && slices.Equal(runs[2].pending, runs[3].pending)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the timer wheel is execution-invisible.
func TestWheelHeapEquivalence(t *testing.T) {
	checkReferenceEquivalence(t, func(k *Kernel) { k.noWheel = true })
}

// Property: batch draining is execution-invisible.
func TestBatchSerialEquivalence(t *testing.T) {
	checkReferenceEquivalence(t, func(k *Kernel) { k.serialDrain = true })
}

// Same-instant events scheduled during a batch must run after the
// events already in the batch — the heap-pop order (time, seq) — and
// events stopped or rescheduled by an earlier batch member must not
// fire from their superseded slot.
func TestBatchMidDrainMutation(t *testing.T) {
	k := NewKernel(1)
	var got []int
	var victim, moved Timer
	k.AfterFunc(time.Second, func() {
		got = append(got, 0)
		victim.Stop()
		moved.Reset(time.Second)                        // re-keys to t=2s
		k.AfterFunc(0, func() { got = append(got, 9) }) // joins this instant, after peers
	})
	victim = k.AfterFunc(time.Second, func() { got = append(got, 1) })
	moved = k.AfterFunc(time.Second, func() { got = append(got, 2) })
	k.AfterFunc(time.Second, func() { got = append(got, 3) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 9, 2}
	if len(got) != len(want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace = %v, want %v", got, want)
		}
	}
}

// A snapshot taken mid-batch — via RunWhile stopping partway through a
// same-instant burst — must still see every unexecuted event as Active
// with its original (deadline, seq), so component snapshots capture it.
func TestMidBatchTimerStateAndPending(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	var timers []Timer
	for i := 0; i < 6; i++ {
		timers = append(timers, k.AfterFunc(time.Second, func() { ran++ }))
	}
	if err := k.RunWhile(func() bool { return ran < 3 }); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
	if got := k.Pending(); got != 3 {
		t.Fatalf("Pending() mid-batch = %d, want 3", got)
	}
	for i, tm := range timers {
		at, seq, ok := TimerState(tm)
		if i < 3 {
			if ok {
				t.Fatalf("timer %d: executed but still snapshot-visible", i)
			}
			continue
		}
		if !ok {
			t.Fatalf("timer %d: unexecuted batch member invisible to snapshot", i)
		}
		if want := Epoch.Add(time.Second); !at.Equal(want) {
			t.Fatalf("timer %d: at = %v, want %v", i, at, want)
		}
		if seq != uint64(i+1) {
			t.Fatalf("timer %d: seq = %d, want %d", i, seq, i+1)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 6 {
		t.Fatalf("ran = %d after drain, want 6", ran)
	}
}

// Wheel-resident timers must be re-keyed in place by Reset: the
// MRAI/hold churn pattern — repeatedly pushing a long deadline out —
// allocates nothing and leaves at most one wheel entry per timer slot.
func TestWheelResetInPlaceZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	tm := k.AfterFunc(90*time.Second, func() {})
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(90 * time.Second)
	})
	if allocs != 0 {
		t.Fatalf("wheel Reset allocs/op = %v, want 0", allocs)
	}
	if k.wheel.count != 1 {
		t.Fatalf("wheel count after churn = %d, want 1", k.wheel.count)
	}
}

// Stop flips a flag and Reset re-files the same event, so cancelling a
// timer and re-arming it — what a session does with its hold and
// connect-retry timers on every flap — allocates nothing, whether the
// event sits in the heap (short delay) or in a wheel slot (long).
func TestTimerStopResetZeroAlloc(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 90 * time.Second} {
		k := NewKernel(1)
		tm := k.AfterFunc(d, func() {})
		if allocs := testing.AllocsPerRun(1000, func() { tm.Stop() }); allocs != 0 {
			t.Errorf("Stop (%v timer) allocs/op = %v, want 0", d, allocs)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			tm.Stop()
			tm.Reset(d)
		})
		if allocs != 0 {
			t.Errorf("Stop+Reset (%v timer) allocs/op = %v, want 0", d, allocs)
		}
		if !tm.Active() || k.Pending() != 1 {
			t.Errorf("after churn (%v timer): active=%v pending=%d, want one live timer", d, tm.Active(), k.Pending())
		}
	}
}

// A long jump of virtual time must cascade wheel entries down the
// levels and fire them at their exact deadlines.
func TestWheelCascadeAcrossLevels(t *testing.T) {
	k := NewKernel(1)
	deadlines := []time.Duration{
		2 * time.Second,     // level 1 territory
		5 * time.Minute,     // level 2
		7 * time.Hour,       // level 3
		30 * 24 * time.Hour, // beyond the wheel: heap fallback
	}
	fired := map[time.Duration]time.Duration{}
	for _, d := range deadlines {
		d := d
		k.AfterFunc(d, func() { fired[d] = k.Elapsed() })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, d := range deadlines {
		at, ok := fired[d]
		if !ok {
			t.Fatalf("timer at %v never fired", d)
		}
		if at != d {
			t.Fatalf("timer at %v fired at %v", d, at)
		}
	}
}

// allocatedBytes reports the bytes fn allocates (this package's tests
// run one at a time, so nothing else allocates meanwhile).
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A fresh kernel's wheel allocates nothing: every trial builds a new
// kernel, so what the first fill costs is what every run pays. The
// session pattern — a keepalive timer firing every 30s and pushing a
// 90s hold timer out each time — files every timer into a new level-2
// slot (span ~8.6s) on each round. Run from t = 0 through several hold
// periods, it may allocate the AfterFunc events and nothing else; the
// heap and batch arrays, which are not the wheel's, are sized up front.
// TotalAlloc counts the whole process, where the runtime or another
// goroutine may allocate a few bytes meanwhile (96 of them failed one
// run in six), so the fill runs on three fresh kernels and the fewest
// bytes any of them took is held to the bound: a wheel that allocates
// does so on every fill, a stray allocation lands in one.
func TestWheelFirstFillAllocatesNothing(t *testing.T) {
	const (
		sessions  = 2000
		keepalive = 30 * time.Second
		hold      = 90 * time.Second
	)
	var k *Kernel
	bytes := uint64(math.MaxUint64)
	for range 3 {
		k = NewKernel(1)
		k.queue = make(eventHeap, 0, 2*sessions)
		k.batch = make([]batchEntry, 0, 2*sessions)
		holdTimers := make([]Timer, sessions)
		kaTimers := make([]Timer, sessions)
		expire := func() { t.Error("hold timer expired") }
		fires := make([]func(), sessions)
		for i := range fires {
			fires[i] = func() {
				holdTimers[i].Reset(hold)
				kaTimers[i].Reset(keepalive)
			}
		}
		bytes = min(bytes, allocatedBytes(func() {
			for i := range fires {
				holdTimers[i] = k.AfterFunc(hold, expire)
				kaTimers[i] = k.AfterFunc(keepalive*time.Duration(i+1)/sessions, fires[i])
			}
			if err := k.RunFor(4 * hold); err != nil {
				t.Fatal(err)
			}
		}))
	}
	// Measured with the slot arrays this replaced: 1 047 256 bytes, so
	// 791 KB beyond the events.
	events := uint64(2 * sessions * unsafe.Sizeof(event{}))
	t.Logf("%d timers over %v allocated at least %d bytes in three fills, %d of them events", 2*sessions, 4*hold, bytes, events)
	if bytes > events {
		t.Fatalf("allocated %d bytes, want <= %d (the events themselves): the wheel allocates", bytes, events)
	}
	if k.Pending() != 2*sessions {
		t.Fatalf("%d timers pending, want %d", k.Pending(), 2*sessions)
	}
}
