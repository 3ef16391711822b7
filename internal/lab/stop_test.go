package lab

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunnerStopSequential pins the sequential drain: once Stop
// closes, no further run starts, the runs already finished keep their
// results, and Run reports ErrStopped.
func TestRunnerStopSequential(t *testing.T) {
	stop := make(chan struct{})
	var ran []int
	sw := gridSweep(5, 1, func(i int) error {
		ran = append(ran, i)
		if i == 1 {
			close(stop)
		}
		return errSkip
	})
	sw.Tolerate, sw.Stop = true, stop
	if _, err := sw.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 1 {
		t.Fatalf("ran %v, want [0 1]", ran)
	}
}

// TestRunnerStopParallel pins the parallel drain: workers finish their
// in-flight runs (every claimed index completes) but claim nothing
// new, and the skipped remainder surfaces as ErrStopped.
func TestRunnerStopParallel(t *testing.T) {
	stop := make(chan struct{})
	var mu sync.Mutex
	done := map[int]bool{}
	var once sync.Once
	sw := gridSweep(64, 4, func(i int) error {
		once.Do(func() { close(stop) })
		mu.Lock()
		done[i] = true
		mu.Unlock()
		return errSkip
	})
	sw.Tolerate, sw.Stop = true, stop
	if _, err := sw.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(done) == 0 || len(done) >= 64 {
		t.Fatalf("completed %d of 64 runs, want a strict partial drain", len(done))
	}
}

// TestRunnerStopBeforeStart pins that a pre-closed Stop runs nothing.
func TestRunnerStopBeforeStart(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	for _, par := range []int{1, 4} {
		var ran atomic.Int32
		sw := gridSweep(8, par, func(int) error {
			ran.Add(1)
			return errSkip
		})
		sw.Tolerate, sw.Stop = true, stop
		if _, err := sw.Run(); !errors.Is(err, ErrStopped) {
			t.Fatalf("parallelism %d: Run returned %v, want ErrStopped", par, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("parallelism %d: ran %d runs after pre-closed stop", par, ran.Load())
		}
	}
}

// TestRunnerNilStopCompletes pins that a sweep without a Stop channel
// is unaffected: every run happens, no error.
func TestRunnerNilStopCompletes(t *testing.T) {
	ran := 0
	sw := gridSweep(5, 1, func(int) error { ran++; return errSkip })
	sw.Tolerate = true
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 5 {
		t.Fatalf("ran %d of 5", ran)
	}
}

// TestSweepStopStoresPartial pins the sweep-level contract behind
// graceful shutdown: a stopped sweep has already fed every completed
// (cell, run) to its Cache, so a resumed run re-executes only the
// remainder.
func TestSweepStopStoresPartial(t *testing.T) {
	sw := decodeSweeps()["sdn-count"]
	sw.Parallelism = 1
	stop := make(chan struct{})
	cache := &mapCache{results: map[[2]int]Result{}}
	sw.Cache = cache
	sw.Stop = stop
	var once sync.Once
	sw.Progress = func(d RunDone) {
		if d.Done >= 2 {
			once.Do(func() { close(stop) })
		}
	}
	if _, err := sw.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if len(cache.results) != 2 {
		t.Fatalf("stopped sweep stored %d results, want 2", len(cache.results))
	}
	// Resume: same spec, same cache, no stop — the two stored runs are
	// hits and the sweep completes.
	sw.Stop = nil
	sw.Progress = nil
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.Axis.Len() * sw.Runs; len(cache.results) != got {
		t.Fatalf("resumed sweep stored %d results, want %d", len(cache.results), got)
	}
	if cache.hits != 2 {
		t.Fatalf("resumed sweep hit %d cached runs, want 2", cache.hits)
	}
	if len(res.Cells) != sw.Axis.Len() {
		t.Fatalf("resumed sweep produced %d cells, want %d", len(res.Cells), sw.Axis.Len())
	}
}

// mapCache is an in-memory CellCache counting hits.
type mapCache struct {
	mu      sync.Mutex
	results map[[2]int]Result
	hits    int
}

func (c *mapCache) Load(cell, run int) (Result, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.results[[2]int{cell, run}]
	if ok {
		c.hits++
	}
	return r, ok, nil
}

func (c *mapCache) Store(cell, run int, r Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[[2]int{cell, run}] = r
	return nil
}

func (c *mapCache) StoreFailure(int, int, CellFailure) error { return nil }
