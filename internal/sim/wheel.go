package sim

import (
	"math/bits"
	"time"
)

// This file implements the hierarchical timer wheel that backs the
// kernel's long-delay timers (MRAI, hold, keepalive, retry, damping
// reuse). The design follows the ndn-dpdk minute-wheel idiom: O(1)
// insert and O(1) amortized advance, against O(log n) per heap
// operation with n pending timers.
//
// The wheel is a pure staging area in front of the event heap, never a
// second execution path: before the kernel pops or peeks an event, it
// flushes every wheel slot whose span starts at or before the heap
// head's tick, moving those entries into the heap with their ORIGINAL
// (deadline, sequence) keys. Sequence numbers are assigned by the same
// counter whether an event is filed in the wheel or the heap, so the
// executed (time, seq) trace — and therefore every byte-equality pin —
// is identical with the wheel on or off (see TestWheelHeapEquivalence).
//
// Timing coarseness never leaks: a slot may be flushed up to one slot
// span before its entries are due, but the heap then orders them by
// exact deadline. Early flushing costs a little heap residency, not
// correctness.

const (
	// wheelLevels and wheelSlots size the hierarchy: level l slots span
	// 64^l ticks, so 5 levels of 64 slots cover ~2ms .. ~26 days.
	wheelLevels   = 5
	wheelSlots    = 64
	wheelSlotBits = 6

	// wheelTickShift converts nanoseconds since Epoch to wheel ticks:
	// one tick is 2^21ns ≈ 2.1ms, well under every wheel-eligible
	// timer's granularity.
	wheelTickShift = 21
)

// wheelMinDelay is the shortest delay filed in the wheel. Short-range
// events (packet deliveries, processing completions, debounce) go
// straight to the heap — they are about to execute anyway — while the
// protocol timers that dominate pending-event population (hold 90s,
// keepalive 30s, MRAI ≤30s, retry 5s, damping reuse ≥1s) take the O(1)
// wheel path.
const wheelMinDelay = time.Second

// wheelEntry pins one scheduled revision of an event in a slot. seq is
// the revision the entry was filed under: if the event has been
// rescheduled since (ev.seq differs), the entry is stale and is dropped
// at flush time.
type wheelEntry struct {
	ev  *event
	seq uint64
}

// timerWheel is the kernel's hierarchical wheel. flushed[l] is the last
// absolute slot index at level l whose contents have been released;
// every resident entry at level l lives in an absolute slot in
// (flushed[l], flushed[l]+wheelSlots], so absolute slots map injectively
// onto the wheelSlots physical slots and a physical slot never mixes
// entries from two different absolute slots.
type timerWheel struct {
	slots   [wheelLevels][wheelSlots][]wheelEntry
	flushed [wheelLevels]int64
	// count is the number of current-revision entries resident in the
	// wheel (stale revisions left behind by Reset are pre-deducted when
	// the replacement is filed, mirroring the heap's lazy-cancel
	// accounting in Pending).
	count int
	// free[l] holds the backing arrays of drained level-l slots. A
	// coarse slot's physical array is not revisited for 64 slot spans
	// (~550s at level 2), so parking a grown array in its slot strands
	// it for the rest of most runs; handing it to the next slot of its
	// level that needs room makes the wheel's footprint follow the
	// resident timer population, not the number of slots time has passed
	// through. One list per level, because a slot's population goes with
	// its level: an array grown for a level-2 slot is wasted on a level-0
	// one, and the level-2 slot that then draws a small array grows it
	// all over again.
	free [wheelLevels][][]wheelEntry
}

// tickOf converts a deadline in nanoseconds since Epoch to an absolute
// wheel tick.
func tickOf(at int64) int64 {
	return at >> wheelTickShift
}

// insert files ev under its current (at, seq) revision, reporting false
// when the deadline is too near (its tick is not strictly ahead of the
// wheel) or too far (beyond the top level) for the wheel, in which case
// the caller must use the heap. When the event's previous revision
// already sits in the target slot, the entry is re-keyed in place, so
// repeated Reset of a long-range timer — the MRAI/hold churn pattern —
// neither allocates nor grows the slot.
func (w *timerWheel) insert(ev *event) bool {
	tick := tickOf(ev.at)
	delta := tick - w.flushed[0]
	if delta <= 0 {
		return false
	}
	l := (bits.Len64(uint64(delta)) - 1) / wheelSlotBits
	if l >= wheelLevels {
		return false
	}
	s := uint8((tick >> (uint(l) * wheelSlotBits)) & (wheelSlots - 1))
	slot := &w.slots[l][s]
	if ev.walive && ev.wlevel == uint8(l) && ev.wslot == s {
		if i := int(ev.windex); i < len(*slot) && (*slot)[i].ev == ev {
			(*slot)[i].seq = ev.seq
			return true
		}
	}
	if ev.walive {
		// The previous revision's entry elsewhere in the wheel becomes
		// stale; pre-deduct it so count tracks current revisions only.
		w.count--
	}
	ev.walive = true
	ev.wlevel = uint8(l)
	ev.wslot = s
	if cap(*slot) == 0 {
		if free := w.free[l]; len(free) > 0 {
			*slot = free[len(free)-1]
			w.free[l] = free[:len(free)-1]
		}
	}
	ev.windex = int32(len(*slot))
	*slot = append(*slot, wheelEntry{ev, ev.seq})
	w.count++
	return true
}

// release advances the wheel through tick, flushing every slot whose
// span starts at or before it. Flushed entries that are due (or within
// one tick of due) move to the heap under their original (at, seq)
// keys; entries still ahead re-file into a finer level. Returns how
// many live events moved to the heap.
func (k *Kernel) wheelRelease(tick int64) int {
	w := &k.wheel
	var from [wheelLevels]int64
	advanced := false
	for l := 0; l < wheelLevels; l++ {
		from[l] = w.flushed[l]
		if target := tick >> (uint(l) * wheelSlotBits); target > w.flushed[l] {
			w.flushed[l] = target
			advanced = true
		}
	}
	if !advanced {
		return 0
	}
	moved := 0
	for l := 0; l < wheelLevels; l++ {
		lo, hi := from[l], w.flushed[l]
		if hi-lo > wheelSlots {
			// A jump past a full revolution visits each physical slot
			// exactly once.
			lo = hi - wheelSlots
		}
		for s := lo + 1; s <= hi; s++ {
			moved += k.flushSlot(l, int(s&(wheelSlots-1)))
		}
	}
	return moved
}

// flushSlot drains one physical slot and hands its backing array to its
// level's free list. Re-filed entries always land in a strictly lower
// level (an entry in a flushable level-l slot is at most 64^l ticks
// ahead of the flush point), so the array being iterated is never
// appended to: it is out of its slot during the loop and on the free
// list only after it.
func (k *Kernel) flushSlot(l, s int) int {
	w := &k.wheel
	entries := w.slots[l][s]
	if len(entries) == 0 {
		return 0
	}
	w.slots[l][s] = nil
	moved := 0
	for _, e := range entries {
		ev := e.ev
		if ev.seq != e.seq {
			// Stale revision: its replacement was counted when filed.
			continue
		}
		w.count--
		ev.walive = false
		if ev.cancelled {
			continue
		}
		if w.insert(ev) {
			continue
		}
		k.queue.push(ev)
		moved++
	}
	clear(entries)
	w.free[l] = append(w.free[l], entries[:0])
	return moved
}

// next returns the start tick of the earliest occupied slot, or false
// when the wheel holds nothing. The start is a lower bound on the
// earliest resident deadline; releasing through it surfaces (or
// re-files toward level 0) everything that could fire first.
func (w *timerWheel) next() (int64, bool) {
	best := int64(0)
	found := false
	for l := 0; l < wheelLevels; l++ {
		for s := w.flushed[l] + 1; s <= w.flushed[l]+wheelSlots; s++ {
			if len(w.slots[l][int(s&(wheelSlots-1))]) > 0 {
				if start := s << (uint(l) * wheelSlotBits); !found || start < best {
					best = start
					found = true
				}
				break
			}
		}
	}
	return best, found
}
