package lab

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// errSkip stands in for a run in the executor tests: a tolerant sweep
// files it as the position's failure, so no emulation runs.
var errSkip = errors.New("skipped")

// gridSweep is a one-cell sweep of n runs at parallelism p whose every
// run first goes through task, the Inject seam, with the run index as
// the grid index.
func gridSweep(n, p int, task func(i int) error) Sweep {
	return Sweep{
		Name:        "grid",
		Base:        Trial{Topo: TopoSpec{Kind: "line", N: 3}},
		Axis:        SDNCounts(0),
		Runs:        n,
		Parallelism: p,
		Inject:      func(_, run int) error { return task(run) },
	}
}

func TestRunnerDoCoversAllIndices(t *testing.T) {
	for _, p := range []int{0, 1, 3, 16} {
		n := 37
		hits := make([]atomic.Int32, n)
		sw := gridSweep(n, p, func(i int) error {
			hits[i].Add(1)
			return errSkip
		})
		sw.Tolerate = true
		res, err := sw.Run()
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallelism %d: run %d ran %d times", p, i, got)
			}
		}
		if len(res.Failures) != n {
			t.Fatalf("parallelism %d: %d failures filed, want %d", p, len(res.Failures), n)
		}
	}
}

// TestSweepRefusesNegativeParallelism pins that the executor, not each
// front end, refuses a negative worker count before anything runs.
func TestSweepRefusesNegativeParallelism(t *testing.T) {
	ran := false
	sw := gridSweep(2, -1, func(int) error { ran = true; return nil })
	if _, err := sw.Run(); err == nil || !strings.Contains(err.Error(), "parallelism -1") {
		t.Fatalf("Run at parallelism -1: err = %v, want a refusal", err)
	}
	if ran {
		t.Fatal("a refused sweep ran a trial")
	}
}

// TestRunnerProgress pins the Progress contract on tolerated failures:
// one call per run, each carrying its failure; sequentially Done
// counts 1..n in order, in parallel the maximum reaches Total.
func TestRunnerProgress(t *testing.T) {
	var seq []RunDone
	sw := gridSweep(10, 1, func(int) error { return errSkip })
	sw.Tolerate = true
	sw.Progress = func(d RunDone) { seq = append(seq, d) }
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 10 {
		t.Fatalf("progress calls = %d, want 10", len(seq))
	}
	for i, d := range seq {
		if d.Done != i+1 || d.Total != 10 || d.Run != i {
			t.Fatalf("sequential progress[%d] = done %d/%d run %d, want %d/10 run %d", i, d.Done, d.Total, d.Run, i+1, i)
		}
		if d.Failure == nil || d.Failure.Run != i || !strings.Contains(d.Failure.Err, errSkip.Error()) || d.Cached {
			t.Fatalf("sequential progress[%d] = %+v, want run %d's filed failure", i, d, i)
		}
	}

	var mu sync.Mutex
	seen := map[int]int{}
	maxDone := 0
	sw = gridSweep(25, 4, func(int) error { return errSkip })
	sw.Tolerate = true
	sw.Progress = func(d RunDone) {
		mu.Lock()
		defer mu.Unlock()
		seen[d.Run]++
		maxDone = max(maxDone, d.Done)
	}
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 25 || maxDone != 25 {
		t.Fatalf("parallel progress: %d distinct runs, max done %d, want 25/25", len(seen), maxDone)
	}
	for run, calls := range seen {
		if calls != 1 {
			t.Fatalf("parallel progress: run %d reported %d times", run, calls)
		}
	}
}

// TestSweepProgressStreams wires the callback through real emulation:
// one call per (cell, run), in order at parallelism 1, each carrying
// the result the sweep returns for that position.
func TestSweepProgressStreams(t *testing.T) {
	var got []RunDone
	s := Sweep{
		Name:        "progress",
		Base:        Trial{Topo: TopoSpec{Kind: "line", N: 3}},
		Axis:        SDNCounts(0, 1),
		Runs:        2,
		Parallelism: 1,
		Progress:    func(d RunDone) { got = append(got, d) },
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("progress calls = %d, want 4 (2 cells x 2 runs)", len(got))
	}
	for i, d := range got {
		if d.Done != i+1 || d.Total != 4 || d.Cell != i/2 || d.Run != i%2 || d.Cached || d.Failure != nil {
			t.Fatalf("progress[%d] = %+v, want done %d/4 at cell %d run %d, executed", i, d, i+1, i/2, i%2)
		}
		if !reflect.DeepEqual(d.Result, res.Cells[d.Cell].Results[d.Run]) {
			t.Fatalf("progress[%d] carries %+v, the sweep returned %+v", i, d.Result, res.Cells[d.Cell].Results[d.Run])
		}
	}
}

func TestRunnerDoReturnsLowestIndexError(t *testing.T) {
	// Whatever the schedule, the reported error must be the
	// lowest-index failure, so parallel error output is deterministic.
	for _, p := range []int{1, 8} {
		_, err := gridSweep(20, p, func(i int) error {
			if i%2 == 1 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		}).Run()
		if err == nil || !strings.Contains(err.Error(), "run 1: task 1 failed") {
			t.Fatalf("parallelism %d: err = %v, want run 1's", p, err)
		}
	}
}
