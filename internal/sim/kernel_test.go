package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelStartsAtEpoch(t *testing.T) {
	k := NewKernel(1)
	if !k.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", k.Now(), Epoch)
	}
	if k.Elapsed() != 0 {
		t.Fatalf("Elapsed() = %v, want 0", k.Elapsed())
	}
}

func TestAfterFuncOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.AfterFunc(3*time.Second, func() { got = append(got, 3) })
	k.AfterFunc(1*time.Second, func() { got = append(got, 1) })
	k.AfterFunc(2*time.Second, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	k := NewKernel(1)
	var at time.Time
	k.AfterFunc(5*time.Second, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Epoch.Add(5 * time.Second); !at.Equal(want) {
		t.Fatalf("event saw Now() = %v, want %v", at, want)
	}
}

func TestNegativeDelayRunsImmediately(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.AfterFunc(-time.Second, func() { ran = true })
	k.Step()
	if !ran {
		t.Fatal("negative-delay event did not run on first step")
	}
	if !k.Now().Equal(Epoch) {
		t.Fatalf("clock moved backwards: %v", k.Now())
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	ran := false
	tm := k.AfterFunc(time.Second, func() { ran = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false on active timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("stopped timer fired")
	}
	if tm.Active() {
		t.Fatal("stopped timer reports active")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.AfterFunc(time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Fatal("Stop() = true after the timer fired")
	}
	if tm.Active() {
		t.Fatal("fired timer reports active")
	}
}

func TestTimerReset(t *testing.T) {
	k := NewKernel(1)
	var fireTimes []time.Duration
	var tm Timer
	tm = k.AfterFunc(time.Second, func() {
		fireTimes = append(fireTimes, k.Elapsed())
	})
	// Push it out before it fires.
	if !tm.Reset(3 * time.Second) {
		t.Fatal("Reset on pending timer should report true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fireTimes) != 1 || fireTimes[0] != 3*time.Second {
		t.Fatalf("fireTimes = %v, want [3s]", fireTimes)
	}
	// Reset after firing re-arms it.
	if tm.Reset(2*time.Second) != false {
		t.Fatal("Reset on fired timer should report false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fireTimes) != 2 || fireTimes[1] != 5*time.Second {
		t.Fatalf("fireTimes = %v, want second firing at 5s", fireTimes)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	k.AfterFunc(1*time.Second, func() { fired = append(fired, 1) })
	k.AfterFunc(10*time.Second, func() { fired = append(fired, 10) })
	if err := k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if k.Elapsed() != 5*time.Second {
		t.Fatalf("Elapsed() = %v, want 5s", k.Elapsed())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both events", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.AfterFunc(time.Millisecond, rec)
		}
	}
	k.Go(rec)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if want := 99 * time.Millisecond; k.Elapsed() != want {
		t.Fatalf("Elapsed() = %v, want %v", k.Elapsed(), want)
	}
}

func TestEventBudget(t *testing.T) {
	k := NewKernel(1)
	k.MaxEvents = 50
	var loop func()
	loop = func() { k.AfterFunc(time.Millisecond, loop) }
	k.Go(loop)
	if err := k.Run(); err != ErrEventBudget {
		t.Fatalf("Run() = %v, want ErrEventBudget", err)
	}
	if k.Events() != 50 {
		t.Fatalf("Events() = %d, want 50", k.Events())
	}
}

func TestDeterminismAcrossKernels(t *testing.T) {
	run := func(seed int64) []int {
		k := NewKernel(seed)
		var out []int
		for i := 0; i < 50; i++ {
			d := time.Duration(k.Rand().Intn(1000)) * time.Millisecond
			v := i
			k.AfterFunc(d, func() { out = append(out, v) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(42), run(42)
	c := run(43)
	if len(a) != 50 || len(b) != 50 {
		t.Fatal("missing events")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff && same {
		t.Log("seeds 42 and 43 produced identical order (possible but unlikely)")
	}
}

func TestRunWhile(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var loop func()
	loop = func() {
		n++
		k.AfterFunc(time.Second, loop)
	}
	k.Go(loop)
	if err := k.RunWhile(func() bool { return n < 10 }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing timestamp order.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		k := NewKernel(7)
		var fired []time.Time
		for _, d := range delaysMs {
			k.AfterFunc(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, k.Now())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return len(fired) == len(delaysMs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping any subset of timers prevents exactly that subset
// from firing.
func TestPropertyStopPreventsFiring(t *testing.T) {
	f := func(stopMask []bool) bool {
		k := NewKernel(9)
		fired := make([]bool, len(stopMask))
		timers := make([]Timer, len(stopMask))
		for i := range stopMask {
			i := i
			timers[i] = k.AfterFunc(time.Duration(i)*time.Millisecond, func() { fired[i] = true })
		}
		for i, stop := range stopMask {
			if stop {
				timers[i].Stop()
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i, stop := range stopMask {
			if fired[i] == stop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Same-instant events scheduled by an earlier event of that instant run
// after the events already due then — the (time, seq) order — and
// events it stopped or reset do not fire from their old key.
func TestSameInstantMutation(t *testing.T) {
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
	if want := []int{0, 3, 9, 2}; !slices.Equal(got, want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// A run stopped between two events of one instant — RunWhile halting
// partway through a same-instant burst — leaves every unexecuted event
// pending and Active with its original (deadline, seq), so component
// snapshots capture it.
func TestMidInstantTimerStateAndPending(t *testing.T) {
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
		t.Fatalf("Pending() mid-instant = %d, want 3", got)
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
			t.Fatalf("timer %d: unexecuted event of the instant invisible to snapshot", i)
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

// Stop flips a flag and Reset re-keys the same event in the heap, so
// pushing a pending timer's deadline out — MRAI and hold-timer churn —
// and cancelling a timer and re-arming it — what a session does with
// its hold and connect-retry timers on every flap — allocate nothing
// and leave one heap entry, for a short delay and a long one alike.
func TestTimerStopResetZeroAlloc(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 90 * time.Second} {
		k := NewKernel(1)
		tm := k.AfterFunc(d, func() {})
		if allocs := testing.AllocsPerRun(1000, func() { tm.Reset(d) }); allocs != 0 {
			t.Errorf("Reset (%v timer) allocs/op = %v, want 0", d, allocs)
		}
		if k.Pending() != 1 {
			t.Errorf("after Reset churn (%v timer): %d pending, want 1", d, k.Pending())
		}
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

// TestAfterFuncAllocatesOnce pins the single-object timer: scheduling
// and running a callback costs the event (which is also the returned
// Timer) and nothing else — no wrapper closure, no separate timer
// handle. The callback here captures nothing, so the caller's closure
// adds no allocation of its own.
func TestAfterFuncAllocatesOnce(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 30 * time.Second} {
		k := NewKernel(1)
		fn := func() {}
		run := func() {
			k.AfterFunc(d, fn)
			if !k.Step() {
				t.Fatal("nothing to step")
			}
		}
		run() // grow the heap's backing array once
		if got := testing.AllocsPerRun(200, run); got != 1 {
			t.Errorf("AfterFunc(%v) + Step: %v allocs, want 1", d, got)
		}
	}
}

// timerOwner stands for a struct that owns a timer, and ownerTimer for
// the named pointer type over it that the timer fires through — the
// way bgp's session machine arms its hold timer.
type (
	timerOwner struct{ fired int }
	ownerTimer timerOwner
)

func (o *ownerTimer) Fire() { o.fired++ }

// TestScheduleAllocatesOnlyItsEvent pins what arming a timer through
// its owner costs: the event, which is the returned Timer, and nothing
// else. A method value of the owner's in its place would add its
// closure, which is what AfterFunc(d, o.method) costs.
func TestScheduleAllocatesOnlyItsEvent(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 30 * time.Second} {
		k := NewKernel(1)
		o := &timerOwner{}
		run := func() {
			k.Schedule(d, (*ownerTimer)(o))
			if !k.Step() {
				t.Fatal("nothing to step")
			}
		}
		run() // grow the heap's backing array once
		if got := testing.AllocsPerRun(200, run); got != 1 {
			t.Errorf("Schedule(%v) + Step: %v allocs, want 1", d, got)
		}
		if o.fired != 202 {
			t.Errorf("the timer fired %d times, want 202", o.fired)
		}
	}
}

// nopFirer is posted work that does nothing.
type nopFirer struct{}

func (*nopFirer) Fire() {}

// TestPostAllocatesNothing pins the recycled event: once the free list
// holds one, posting and running work costs no allocation, at any
// delay.
func TestPostAllocatesNothing(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 30 * time.Second} {
		k := NewKernel(1)
		f := &nopFirer{}
		run := func() {
			k.Post(d, f)
			if !k.Step() {
				t.Fatal("nothing to step")
			}
		}
		run() // the one event, and the backing arrays it passes through
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("Post(%v) + Step: %v allocs, want 0", d, got)
		}
		free := 0
		for ev := k.free; ev != nil; ev = ev.next {
			free++
		}
		if free != 1 || k.Pending() != 0 {
			t.Errorf("Post(%v): %d events on the free list, %d pending, want 1 and 0", d, free, k.Pending())
		}
	}
}

// TestTimerLifecycle walks one timer through every Stop / Reset /
// Active / TimerState transition, before and after firing, for a short
// and a long delay.
func TestTimerLifecycle(t *testing.T) {
	type obs struct {
		ret    bool // what the operation returned
		active bool // Active() and TimerState's ok afterwards
		fires  int  // callbacks run once the kernel drains
	}
	// How the timer gets into the state the operation finds it in.
	pending := func(Timer, *Kernel) {}
	fired := func(_ Timer, k *Kernel) { k.Run() }
	stopped := func(tm Timer, _ *Kernel) { tm.Stop() }
	stop := func(tm Timer, _ time.Duration) bool { return tm.Stop() }
	reset := func(tm Timer, d time.Duration) bool { return tm.Reset(d) }
	cases := []struct {
		name  string
		state func(Timer, *Kernel)
		op    func(Timer, time.Duration) bool
		want  obs
	}{
		{"stop pending", pending, stop, obs{ret: true, active: false, fires: 0}},
		{"stop fired", fired, stop, obs{ret: false, active: false, fires: 1}},
		{"stop stopped", stopped, stop, obs{ret: false, active: false, fires: 0}},
		{"reset pending", pending, reset, obs{ret: true, active: true, fires: 1}},
		{"reset fired", fired, reset, obs{ret: false, active: true, fires: 2}},
		{"reset stopped", stopped, reset, obs{ret: false, active: true, fires: 1}},
	}
	for _, d := range []time.Duration{time.Millisecond, 30 * time.Second} {
		for _, c := range cases {
			k := NewKernel(1)
			fires := 0
			tm := k.AfterFunc(d, func() { fires++ })
			if _, seq, ok := TimerState(tm); !ok || !tm.Active() || seq != 1 {
				t.Fatalf("%s/%v: fresh timer: active=%v state ok=%v seq=%d", c.name, d, tm.Active(), ok, seq)
			}
			c.state(tm, k)
			seqBefore, now := k.seq, k.Now()
			got := obs{ret: c.op(tm, 2*d)}
			at, seq, ok := TimerState(tm)
			if ok != tm.Active() {
				t.Errorf("%s/%v: TimerState ok=%v but Active=%v", c.name, d, ok, tm.Active())
			}
			got.active = ok
			if ok && (!at.Equal(now.Add(2*d)) || seq != seqBefore+1 || k.seq != seq) {
				// A Reset takes exactly one fresh sequence number and
				// reports the new deadline.
				t.Errorf("%s/%v: reset timer state at=%v seq=%d (kernel seq %d → %d)", c.name, d, at.Sub(Epoch), seq, seqBefore, k.seq)
			}
			if !ok && (!at.IsZero() || seq != 0 || k.seq != seqBefore) {
				t.Errorf("%s/%v: inactive timer state at=%v seq=%d (kernel seq %d → %d)", c.name, d, at, seq, seqBefore, k.seq)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			got.fires = fires
			if got != c.want {
				t.Errorf("%s/%v: got %+v, want %+v", c.name, d, got, c.want)
			}
			if tm.Active() {
				t.Errorf("%s/%v: timer active after the kernel drained", c.name, d)
			}
		}
	}
}

// drainHop is one of a fixed population of posted events: each firing
// posts itself again a pseudo-random 0-1023 µs ahead, so the number
// pending stays the population, spread over about a thousand instants.
type drainHop struct {
	k *Kernel
	x uint64
}

func (h *drainHop) Fire() {
	h.x = h.x*6364136223846793005 + 1442695040888963407
	h.k.Post(time.Duration(h.x>>54)*time.Microsecond, h)
}

// BenchmarkKernelDrain times one event of a steady population posted
// through the heap: 1 k pending is a clique unit's establish phase, 32
// k an internet-1000 one's. It is the number the heap's arity was
// chosen on (DECISIONS.md, "A frame costs no hash and no pointer
// chase").
func BenchmarkKernelDrain(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 15} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			k := NewKernel(1)
			hops := make([]drainHop, n)
			for i := range hops {
				hops[i] = drainHop{k: k, x: uint64(i)}
				hops[i].Fire()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
