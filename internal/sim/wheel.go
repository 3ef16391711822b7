package sim

import (
	"math/bits"
	"time"
)

// This file implements the hierarchical timer wheel that backs the
// kernel's long-delay timers (MRAI, retry, damping reuse, and the hold
// and keepalive timers of BGP sessions that are not quiet: a quiet
// pair, bgp.Mating, arms neither). The design follows the ndn-dpdk minute-wheel idiom: O(1)
// insert and O(1) amortized advance, against O(log n) per heap
// operation with n pending timers.
//
// The wheel is a pure staging area in front of the event heap, never a
// second execution path: before the kernel pops or peeks an event, it
// flushes every wheel slot whose span starts at or before the heap
// head's tick, moving those events into the heap with their ORIGINAL
// (deadline, sequence) keys. Sequence numbers are assigned by the same
// counter whether an event is filed in the wheel or the heap, so the
// executed (time, seq) trace — and therefore every byte-equality pin —
// is identical with the wheel on or off (see TestWheelHeapEquivalence).
//
// Timing coarseness never leaks: a slot may be flushed up to one slot
// span before its events are due, but the heap then orders them by
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
// protocol timers that dominate pending-event population (MRAI ≤30s,
// retry 5s, damping reuse ≥1s, and the hold 90s and keepalive 30s of
// sessions that are not quiet) take the O(1) wheel path.
const wheelMinDelay = time.Second

// timerWheel is the kernel's hierarchical wheel. flushed[l] is the last
// absolute slot index at level l whose contents have been released;
// every resident event at level l lives in an absolute slot in
// (flushed[l], flushed[l]+wheelSlots], so absolute slots map injectively
// onto the wheelSlots physical slots and a physical slot never mixes
// events from two different absolute slots.
//
// Each slot is the head of an intrusive doubly linked list threaded
// through its events (wnext, and wpprev pointing at whichever word
// points at the event), so filing, unlinking and flushing touch only
// the events themselves: the wheel allocates nothing, in a fresh
// kernel as in a warm one. Order within a slot is irrelevant, because
// a flush hands its events to the heap under their own (at, seq) keys.
type timerWheel struct {
	slots   [wheelLevels][wheelSlots]*event
	flushed [wheelLevels]int64
	// count is the number of events linked into the wheel, stopped ones
	// included until their slot is flushed (the heap's lazy-cancel
	// accounting in Pending).
	count int
}

// tickOf converts a deadline in nanoseconds since Epoch to an absolute
// wheel tick.
func tickOf(at int64) int64 {
	return at >> wheelTickShift
}

// insert links ev, which must not be linked, into the slot of its
// deadline, reporting false when the deadline is too near (its tick is
// not strictly ahead of the wheel) or too far (beyond the top level)
// for the wheel, in which case the caller must use the heap.
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
	head := &w.slots[l][(tick>>(uint(l)*wheelSlotBits))&(wheelSlots-1)]
	ev.wnext = *head
	if ev.wnext != nil {
		ev.wnext.wpprev = &ev.wnext
	}
	ev.wpprev = head
	*head = ev
	w.count++
	return true
}

// unlink takes ev, which must be linked, out of its slot.
func (w *timerWheel) unlink(ev *event) {
	*ev.wpprev = ev.wnext
	if ev.wnext != nil {
		ev.wnext.wpprev = ev.wpprev
	}
	ev.wnext, ev.wpprev = nil, nil
	w.count--
}

// release advances the wheel through tick, flushing every slot whose
// span starts at or before it. Flushed events that are due (or within
// one tick of due) move to the heap under their original (at, seq)
// keys; events still ahead re-file into a finer level. Returns how
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
			moved += k.flushSlot(&w.slots[l][s&(wheelSlots-1)])
		}
	}
	return moved
}

// flushSlot detaches one slot's list and drains it: stopped events are
// dropped, the rest re-file into the wheel or move to the heap. A
// re-filed event always lands in a strictly lower level (an event in a
// flushable level-l slot is at most 64^l ticks ahead of the flush
// point), never back into the list being drained.
func (k *Kernel) flushSlot(head **event) int {
	w := &k.wheel
	ev := *head
	*head = nil
	moved := 0
	for ev != nil {
		next := ev.wnext
		ev.wnext, ev.wpprev = nil, nil
		w.count--
		if !ev.cancelled && !w.insert(ev) {
			k.queue.push(ev)
			moved++
		}
		ev = next
	}
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
			if w.slots[l][s&(wheelSlots-1)] != nil {
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
