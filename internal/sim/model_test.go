package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// modelKey is an event's place in the executed order: its deadline in
// nanoseconds since Epoch, then its scheduling sequence number.
type modelKey struct {
	at  int64
	seq uint64
}

func (a modelKey) compare(b modelKey) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
}

// modelEntry is one pending event of the oracle.
type modelEntry struct {
	key modelKey
	id  int
}

// Oracle states of one event id.
const (
	modelLive    = iota // scheduled, not yet fired
	modelStopped        // stopped; the kernel may still hold it
	modelGone           // fired, or stopped and passed by the kernel
)

// kernelModel drives a Kernel and its oracle in lockstep. The oracle is
// the contract with every structure taken out: the pending events in a
// slice sorted by (at, seq), a clock and a sequence counter. It shares
// nothing with the kernel's heap, so it can see a fault in the heap
// itself.
type kernelModel struct {
	t    *testing.T
	k    *Kernel
	tape []byte

	now    int64
	seq    uint64
	live   []modelEntry // sorted by key
	state  []int        // by id
	key    []modelKey   // by id: the key it was last scheduled under
	timers []int        // ids of the Schedule and AfterFunc timers, in creation order
	handle []Timer      // by id; nil for posted work
}

// modelHop is posted work: when it fires it reports its id.
type modelHop struct {
	m  *kernelModel
	id int
}

func (h *modelHop) Fire() { h.m.fired(h.id, h) }

// modelTimer is a timer armed with Schedule: when it fires it reports
// its id, as an AfterFunc timer's callback does.
type modelTimer struct {
	m  *kernelModel
	id int
}

func (mt *modelTimer) Fire() { mt.m.fired(mt.id, nil) }

// next consumes one tape byte; ok is false once the tape is used up.
func (m *kernelModel) next() (b byte, ok bool) {
	if len(m.tape) == 0 {
		return 0, false
	}
	b, m.tape = m.tape[0], m.tape[1:]
	return b, true
}

// modelDelay decodes a delay. Every class is a few coarse steps, so
// events pile up on shared instants: near-term, within a few
// milliseconds of one second, seconds to minutes as MRAI, hold and
// keepalive timers are, and one value of 30 days. A negative delay
// counts as zero.
func modelDelay(b byte) time.Duration {
	v := time.Duration(b & 63)
	switch b >> 6 {
	case 0:
		if v == 63 {
			return -time.Millisecond
		}
		return v % 4 * 100 * time.Millisecond
	case 1:
		return time.Second + (v%8-4)*time.Millisecond
	case 2:
		return v % 8 * 5 * time.Second
	default:
		if v == 63 {
			return 30 * 24 * time.Hour
		}
		return v % 16 * 90 * time.Second
	}
}

// modelRunFor decodes how far one run step advances the clock: mostly
// a fraction of a second, sometimes minutes.
func modelRunFor(b byte) time.Duration {
	if b >= 224 {
		return time.Duration(b&31) * 30 * time.Second
	}
	return time.Duration(b%8) * 100 * time.Millisecond
}

// schedule files id in the oracle d from now, under the next sequence
// number.
func (m *kernelModel) schedule(id int, d time.Duration) {
	m.seq++
	key := modelKey{m.now + int64(max(d, 0)), m.seq}
	at, _ := slices.BinarySearchFunc(m.live, key, func(e modelEntry, k modelKey) int { return e.key.compare(k) })
	m.live = slices.Insert(m.live, at, modelEntry{key, id})
	m.state[id], m.key[id] = modelLive, key
}

// unschedule takes a live id out of the oracle's pending set.
func (m *kernelModel) unschedule(id int) {
	at := slices.IndexFunc(m.live, func(e modelEntry) bool { return e.id == id })
	m.live = slices.Delete(m.live, at, at+1)
}

func (m *kernelModel) newID(h Timer) int {
	m.state = append(m.state, modelGone)
	m.key = append(m.key, modelKey{})
	m.handle = append(m.handle, h)
	return len(m.state) - 1
}

// fired is every event's callback: the kernel must be running the
// oracle's earliest pending event, at its deadline. A hop then reacts
// with the next tape step, as handlers schedule, stop and reset from
// inside their own firing.
func (m *kernelModel) fired(id int, h *modelHop) {
	m.t.Helper()
	if len(m.live) == 0 {
		m.t.Fatalf("event %d fired at %v; the oracle has nothing pending", id, m.k.Elapsed())
	}
	want := m.live[0]
	if want.id != id || int64(m.k.Elapsed()) != want.key.at {
		m.t.Fatalf("event %d fired at %v; the oracle's next is %d at %v (seq %d)",
			id, m.k.Elapsed(), want.id, time.Duration(want.key.at), want.key.seq)
	}
	m.live = m.live[1:]
	m.now = want.key.at
	m.state[id] = modelGone
	if h != nil {
		checkFreeList(m.t, m.k) // the firing event was recycled a moment ago
		if b, ok := m.next(); ok && b%2 == 0 {
			if d, ok := m.next(); ok {
				// A handler answering on the spot: its event was
				// recycled a moment ago and carries this post.
				m.k.Post(modelDelay(d), h)
				m.schedule(id, modelDelay(d))
				return
			}
		}
	}
	m.step(true)
}

// timer picks a Schedule or AfterFunc timer by tape byte, or -1 when
// none exists.
func (m *kernelModel) timer(b byte) int {
	if len(m.timers) == 0 {
		return -1
	}
	return m.timers[int(b)%len(m.timers)]
}

// step applies the next tape operation to kernel and oracle; inFire
// turns run steps into no-ops, as an event cannot run the kernel.
func (m *kernelModel) step(inFire bool) bool {
	m.t.Helper()
	op, ok := m.next()
	if !ok {
		return false
	}
	arg, _ := m.next()
	switch op % 8 {
	case 0:
		var id int
		id = m.newID(m.k.AfterFunc(modelDelay(arg), func() { m.fired(id, nil) }))
		m.timers = append(m.timers, id)
		m.schedule(id, modelDelay(arg))
	case 1:
		mt := &modelTimer{m: m}
		mt.id = m.newID(m.k.Schedule(modelDelay(arg), mt))
		m.timers = append(m.timers, mt.id)
		m.schedule(mt.id, modelDelay(arg))
	case 2:
		id := m.newID(nil)
		m.k.Post(modelDelay(arg), &modelHop{m, id})
		m.schedule(id, modelDelay(arg))
	case 3:
		if id := m.timer(arg); id >= 0 {
			want := m.state[id] == modelLive
			if got := m.handle[id].Stop(); got != want {
				m.t.Fatalf("Stop(timer %d) = %v, oracle %v", id, got, want)
			}
			if want {
				m.unschedule(id)
				m.state[id] = modelStopped
			}
		}
	case 4, 5:
		if id := m.timer(arg); id >= 0 {
			b, _ := m.next()
			want := m.state[id] == modelLive
			if got := m.handle[id].Reset(modelDelay(b)); got != want {
				m.t.Fatalf("Reset(timer %d) = %v, oracle %v", id, got, want)
			}
			if want {
				m.unschedule(id)
			}
			m.schedule(id, modelDelay(b))
		}
	default:
		if inFire {
			break
		}
		until := m.now + int64(modelRunFor(arg))
		if err := m.k.RunFor(modelRunFor(arg)); err != nil {
			m.t.Fatal(err)
		}
		m.passed(until)
	}
	return true
}

// passed checks a run through until and moves the oracle's clock
// there. No pending event may be due by then, and every stopped event
// keyed before the earliest pending one has been passed by the kernel:
// the Run family's last look at the queue discards it.
func (m *kernelModel) passed(until int64) {
	m.t.Helper()
	if len(m.live) > 0 && m.live[0].key.at <= until {
		m.t.Fatalf("the run to %v left event %d due at %v", time.Duration(until), m.live[0].id, time.Duration(m.live[0].key.at))
	}
	m.now = max(m.now, until)
	for id, st := range m.state {
		if st == modelStopped && (len(m.live) == 0 || m.key[id].compare(m.live[0].key) < 0) {
			m.state[id] = modelGone
		}
	}
}

// check compares what the kernel reports with the oracle after a
// tape step, and checks the heap and the free list (checkFreeList).
// Pending counts an event from its scheduling until it fires or is
// discarded, and a stopped one is discarded lazily — when the kernel
// passes it — so it must lie between the live events and those plus
// the stopped events not yet passed.
func (m *kernelModel) check() {
	m.t.Helper()
	checkFreeList(m.t, m.k)
	if m.k.seq != m.seq {
		m.t.Fatalf("kernel sequence counter %d, oracle %d", m.k.seq, m.seq)
	}
	if got, want := m.k.Now(), Epoch.Add(time.Duration(m.now)); !got.Equal(want) {
		m.t.Fatalf("kernel clock %v, oracle %v", got.Sub(Epoch), want.Sub(Epoch))
	}
	stopped := 0
	for _, st := range m.state {
		if st == modelStopped {
			stopped++
		}
	}
	if p := m.k.Pending(); p < len(m.live) || p > len(m.live)+stopped {
		m.t.Fatalf("Pending() = %d; the oracle has %d live and %d stopped events", p, len(m.live), stopped)
	}
	for _, id := range m.timers {
		if got, want := m.handle[id].Active(), m.state[id] == modelLive; got != want {
			m.t.Fatalf("timer %d: Active() = %v, oracle %v", id, got, want)
		}
	}
}

// checkFreeList fails unless every heap entry sits at its event's
// index under its event's key, no entry sorts before its parent, and no
// recycled event is still in the heap or on the free list twice.
func checkFreeList(t *testing.T, k *Kernel) {
	t.Helper()
	for i := range k.queue {
		e := &k.queue[i]
		if int(e.ev.index) != i || e.at != e.ev.at || e.seq != e.ev.seq {
			t.Fatalf("heap entry %d: index %d, key (%d, %d), its event's key (%d, %d)", i, e.ev.index, e.at, e.seq, e.ev.at, e.ev.seq)
		}
		if i > 0 && e.before(&k.queue[(i-1)/2]) {
			t.Fatalf("heap entry %d sorts before its parent", i)
		}
	}
	free := make(map[*event]bool)
	for ev := k.free; ev != nil; ev = ev.next {
		if free[ev] {
			t.Fatalf("event %p is on the free list twice", ev)
		}
		free[ev] = true
		if ev.index >= 0 {
			t.Fatalf("event %p is on the free list and at heap index %d", ev, ev.index)
		}
	}
}

// checkKernelModel replays tape against a fresh kernel and the oracle,
// checking after every step, then drains both.
func checkKernelModel(t *testing.T, tape []byte) {
	m := &kernelModel{t: t, k: NewKernel(1), tape: tape}
	for m.step(false) {
		m.check()
	}
	if err := m.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.live) > 0 {
		t.Fatalf("the kernel went quiet with %d events the oracle still holds, the first %d", len(m.live), m.live[0].id)
	}
	m.passed(m.now)
	m.check()
	if p := m.k.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after Run", p)
	}
}

// TestKernelModel holds the kernel to the sorted-slice oracle over
// random tapes of Schedule, AfterFunc, Post, Stop and Reset (of pending,
// stopped and fired timers of either kind, so heap-resident ones take
// the in-place fix path)
// interleaved with partial runs, with handlers that schedule, stop and
// reset from inside their own firing. DECISIONS.md ("A frame costs no
// hash and no pointer chase") lists the seeded heap faults it catches.
func TestKernelModel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 300; i++ {
		tape := make([]byte, 50+rng.Intn(600))
		rng.Read(tape)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkKernelModel(t, tape) })
	}
}

// FuzzKernelModel is the same check over fuzzed tapes.
func FuzzKernelModel(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 4; i++ {
		tape := make([]byte, 400)
		rng.Read(tape)
		f.Add(tape)
	}
	f.Fuzz(checkKernelModel)
}
