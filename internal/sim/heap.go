package sim

// heapEntry is one event filed in the heap under its (at, seq) key. The
// key is a copy of the event's own, held inline so that sifting
// compares integers in the heap's array and never loads an event; only
// an entry that moves writes its event's index.
type heapEntry struct {
	at  int64 // deadline, nanoseconds since Epoch
	seq uint64
	ev  *event
}

func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq). Every
// resident event's index is its position in the slice; a popped
// event's is -1.
type eventHeap []heapEntry

// push files ev under its current key.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, heapEntry{})
	h.up(len(*h)-1, heapEntry{ev.at, ev.seq, ev})
}

// pop removes the earliest event. The heap must not be empty.
func (h *eventHeap) pop() {
	q := *h
	q[0].ev.index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = heapEntry{}
	*h = q[:n]
	if n > 0 {
		h.down(0, last)
	}
}

// fix restores the order after ev, which is resident, took a new key.
func (h *eventHeap) fix(ev *event) {
	i := int(ev.index)
	e := heapEntry{ev.at, ev.seq, ev}
	if i > 0 && e.before(&(*h)[(i-1)/2]) {
		h.up(i, e)
	} else {
		h.down(i, e)
	}
}

// up fills the hole at i with e, first moving down every ancestor that
// e sorts before.
func (h *eventHeap) up(i int, e heapEntry) {
	q := *h
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = int32(i)
		i = p
	}
	q[i] = e
	e.ev.index = int32(i)
}

// down fills the hole at i with e, first moving up the earlier child
// for as long as it sorts before e.
func (h *eventHeap) down(i int, e heapEntry) {
	q := *h
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		q[i].ev.index = int32(i)
		i = c
	}
	q[i] = e
	e.ev.index = int32(i)
}
