package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// allocatedBytes reports the bytes fn allocates (this package's tests
// run one at a time, so nothing else allocates meanwhile).
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCountingSourceStreamIdentity pins the property the whole
// checkpointing design rests on: a *rand.Rand over a CountingSource
// emits the byte-identical stream of one over a plain rand.NewSource,
// across every consumption method the emulation uses.
func TestCountingSourceStreamIdentity(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		plain := rand.New(rand.NewSource(seed))
		counted := rand.New(NewCountingSource(seed))
		for i := 0; i < 1000; i++ {
			switch i % 5 {
			case 0:
				if a, b := plain.Int63(), counted.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, a, b)
				}
			case 1:
				if a, b := plain.Float64(), counted.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, a, b)
				}
			case 2:
				if a, b := plain.Uint64(), counted.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, a, b)
				}
			case 3:
				if a, b := plain.Int63n(1000), counted.Int63n(1000); a != b {
					t.Fatalf("seed %d draw %d: Int63n %d != %d", seed, i, a, b)
				}
			case 4:
				if a, b := plain.Perm(10), counted.Perm(10); len(a) == len(b) {
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("seed %d draw %d: Perm mismatch", seed, i)
						}
					}
				}
			}
		}
	}
}

// TestCountingSourceFastForward pins that (seed, draws) fully locates
// a stream position: re-seeding and fast-forwarding reproduces the
// continuation exactly.
func TestCountingSourceFastForward(t *testing.T) {
	src := NewCountingSource(99)
	r := rand.New(src)
	for i := 0; i < 137; i++ {
		r.Float64()
	}
	draws := src.Draws()
	var want []int64
	for i := 0; i < 50; i++ {
		want = append(want, r.Int63())
	}

	src2 := NewCountingSource(0)
	src2.Seed(99)
	src2.FastForward(draws)
	r2 := rand.New(src2)
	for i, w := range want {
		if got := r2.Int63(); got != w {
			t.Fatalf("draw %d after fast-forward: %d != %d", i, got, w)
		}
	}
}

// TestCountingSourceLazy pins what an undrawn stream costs: creating
// one, wrapping it in a rand.Rand, re-seeding it, reading its position
// and fast-forwarding to position 0 build no generator (the stdlib one
// is 607 words, 4.9 KB); the first draw does. And laziness changes no
// value: any interleaving of draws, Seed and FastForward emits what a
// plain rand.NewSource at the same (seed, position) emits.
func TestCountingSourceLazy(t *testing.T) {
	const rounds = 100
	var positions uint64
	bytes := allocatedBytes(func() {
		for i := 0; i < rounds; i++ {
			c := NewCountingSource(int64(i))
			_ = rand.New(c)
			c.Seed(int64(i) + 1)
			c.FastForward(0)
			positions += c.Draws()
		}
	})
	if perSource := bytes / rounds; perSource > 256 || positions != 0 {
		t.Fatalf("an undrawn source cost %d bytes (position sum %d), want <= 256 and 0", perSource, positions)
	}
	c := NewCountingSource(3)
	if c.src != nil {
		t.Fatal("generator built before the first draw")
	}
	c.Int63()
	if c.src == nil || c.Draws() != 1 {
		t.Fatalf("after one draw: generator built %v, Draws %d", c.src != nil, c.Draws())
	}
	c.Seed(4)
	if c.src != nil || c.Draws() != 0 {
		t.Fatalf("after Seed: generator kept %v, Draws %d", c.src != nil, c.Draws())
	}

	// Interleavings against a plain source kept at the same position.
	ops := rand.New(rand.NewSource(19))
	seed := int64(11)
	c = NewCountingSource(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < 5000; i++ {
		switch ops.Intn(10) {
		case 0:
			seed = ops.Int63()
			c.Seed(seed)
			ref = rand.NewSource(seed).(rand.Source64)
		case 1:
			skip := uint64(ops.Intn(40)) // 0 is a legal target: stay put
			c.FastForward(c.Draws() + skip)
			for ; skip > 0; skip-- {
				ref.Int63()
			}
		case 2, 3, 4:
			if got, want := c.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("op %d: Uint64 = %d, plain source %d", i, got, want)
			}
		default:
			if got, want := c.Int63(), ref.Int63(); got != want {
				t.Fatalf("op %d: Int63 = %d, plain source %d", i, got, want)
			}
		}
	}
}

// TestKernelStateRoundTrip pins the kernel restore protocol: capture
// state mid-run, rebuild a fresh kernel, re-arm the pending timer,
// finish the restore, and the continuation matches the original.
func TestKernelStateRoundTrip(t *testing.T) {
	run := func() KernelState {
		k := NewKernel(7)
		k.AfterFunc(time.Second, func() {})
		for i := 0; i < 10; i++ {
			k.Rand().Float64()
		}
		if !k.Step() {
			t.Fatal("no event to step")
		}
		k.AfterFunc(2*time.Second, func() {})
		return k.State()
	}
	st := run()

	k := NewKernel(7)
	for i := 0; i < 3; i++ {
		k.Rand().Float64() // desync deliberately; BeginRestore must resync
	}
	k.BeginRestore(st, 7)
	var fired time.Time
	k.AfterFunc(2*time.Second, func() { fired = k.Now() })
	k.FinishRestore(st)

	if k.Now().Sub(Epoch) != time.Second {
		t.Fatalf("restored clock at %v, want Epoch+1s", k.Now().Sub(Epoch))
	}
	if k.Events() != 1 {
		t.Fatalf("restored events %d, want 1", k.Events())
	}
	want := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		want.Float64()
	}
	if got, w := k.Rand().Float64(), want.Float64(); got != w {
		t.Fatalf("restored RNG continuation %v != %v", got, w)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired.Sub(Epoch) != 3*time.Second {
		t.Fatalf("re-armed timer fired at %v, want Epoch+3s", fired.Sub(Epoch))
	}
}

// TestTimerState pins the timer inspection API: active kernel timers
// report (deadline, seq); fired, stopped and nil timers do not.
func TestTimerState(t *testing.T) {
	k := NewKernel(1)
	tm := k.AfterFunc(5*time.Second, func() {})
	at, seq, ok := TimerState(tm)
	if !ok || at.Sub(Epoch) != 5*time.Second || seq == 0 {
		t.Fatalf("active timer: at=%v seq=%d ok=%v", at.Sub(Epoch), seq, ok)
	}
	tm.Stop()
	if _, _, ok := TimerState(tm); ok {
		t.Fatal("stopped timer reported active state")
	}
	if _, _, ok := TimerState(nil); ok {
		t.Fatal("nil timer reported active state")
	}
}
