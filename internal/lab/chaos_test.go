package lab

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/monitor"
)

// lossySweep is baseSweep with 5% seeded per-link loss.
func lossySweep() Sweep {
	s := baseSweep()
	s.Base.LinkLoss = 0.05
	return s
}

// TestLossySweepDeterministicAcrossParallelism pins the chaos
// reproducibility contract: because every link draws its losses from
// its own stream seeded by the trial seed, a lossy sweep is
// byte-identical whether the runs execute sequentially or across 8
// workers.
func TestLossySweepDeterministicAcrossParallelism(t *testing.T) {
	seq := lossySweep()
	seq.Parallelism = 1
	seqRes, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	par := lossySweep()
	par.Parallelism = 8
	parRes, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("lossy results differ:\nsequential: %+v\nparallel:   %+v", seqRes, parRes)
	}
	var a, b strings.Builder
	if err := Write(&a, FormatJSON, seqRes); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, FormatJSON, parRes); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("lossy JSON differs across parallelism:\n--- sequential ---\n%s--- parallel ---\n%s", a.String(), b.String())
	}
	// And loss actually reaches the dynamics: the lossless twin
	// measures different numbers (retransmission penalties shift the
	// timeline; whether a given cell lands faster or slower depends on
	// which updates the loss pattern prunes from path exploration).
	clean := baseSweep()
	clean.Parallelism = 1
	cleanRes, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Cells[0].Summary.Median == cleanRes.Cells[0].Summary.Median {
		t.Fatalf("5%% loss left the pure-BGP median untouched (%.3fs): the loss model is not wired into the transport",
			cleanRes.Cells[0].Summary.Median)
	}
}

// TestTotalLossIsDefinedNonConvergence pins the Loss=1.0 edge: with
// every message dropped, sessions never establish, and the trial fails
// with the establishment deadline — a timeout-class error, not a hang
// or a bogus result.
func TestTotalLossIsDefinedNonConvergence(t *testing.T) {
	s := baseSweep()
	s.Base.LinkLoss = 1.0
	s.Axis = SDNCounts(0)
	s.Runs = 1

	// Direct: the error is classified as a timeout.
	_, err := s.trialFor(0, 0).Run()
	if err == nil {
		t.Fatal("total loss should fail the establishment deadline")
	}
	if !errors.Is(err, monitor.ErrTimeout) {
		t.Fatalf("total-loss error %v is not timeout-class", err)
	}

	// Tolerant: the run is recorded as a timed-out CellFailure and the
	// sweep still completes.
	s.Tolerate = true
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(res.Failures))
	}
	f := res.Failures[0]
	if !f.TimedOut || f.Panicked || f.Cell != 0 || f.Run != 0 {
		t.Fatalf("failure = %+v, want a timed-out cell 0 run 0", f)
	}
}

// TestTolerantSweepRecordsInjectedFailures drives the failure-tolerant
// sweep through the Inject seam: one run panics, one times out, the
// rest survive — and every output format annotates the failures.
func TestTolerantSweepRecordsInjectedFailures(t *testing.T) {
	for _, parallelism := range []int{1, 8} {
		s := baseSweep()
		s.Parallelism = parallelism
		s.Tolerate = true
		s.Inject = func(cell, run int) error {
			switch {
			case cell == 1 && run == 0:
				panic("chaos: injected crash")
			case cell == 2 && run == 1:
				return fmt.Errorf("injected deadline: %w", monitor.ErrTimeout)
			}
			return nil
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if len(res.Failures) != 2 {
			t.Fatalf("parallelism %d: failures = %+v, want 2", parallelism, res.Failures)
		}
		crash, deadline := res.Failures[0], res.Failures[1]
		if crash.Cell != 1 || crash.Run != 0 || !crash.Panicked {
			t.Fatalf("crash failure = %+v", crash)
		}
		if !strings.Contains(crash.Err, "chaos: injected crash") {
			t.Fatalf("crash error text = %q", crash.Err)
		}
		if deadline.Cell != 2 || deadline.Run != 1 || !deadline.TimedOut {
			t.Fatalf("deadline failure = %+v", deadline)
		}
		// Surviving runs still summarize: the crashed cell keeps its
		// other two runs.
		if n := res.Cells[1].Summary.N; n != 2 {
			t.Fatalf("crashed cell summarizes %d runs, want the 2 survivors", n)
		}
		if n := res.Cells[0].Summary.N; n != 3 {
			t.Fatalf("clean cell summarizes %d runs, want 3", n)
		}

		// Every format annotates the failures.
		var table, csv, md, js strings.Builder
		for _, enc := range []struct {
			w *strings.Builder
			f Format
		}{{&table, FormatTable}, {&csv, FormatCSV}, {&md, FormatMarkdown}, {&js, FormatJSON}} {
			if err := Write(enc.w, enc.f, res); err != nil {
				t.Fatal(err)
			}
		}
		if !strings.Contains(table.String(), "# failed: sdn_k=3 run 0 (panic): ") ||
			!strings.Contains(table.String(), "# failed: sdn_k=6 run 1 (timeout): ") {
			t.Fatalf("table missing failure trailer:\n%s", table.String())
		}
		if !strings.Contains(md.String(), "**Failed runs (2):**") {
			t.Fatalf("markdown missing failure section:\n%s", md.String())
		}
		if !strings.Contains(csv.String(), ",failed") {
			t.Fatalf("csv missing failed column:\n%s", csv.String())
		}
		var decoded struct {
			Failures []struct {
				Cell  int    `json:"cell"`
				Class string `json:"class"`
			} `json:"failures"`
		}
		if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
			t.Fatal(err)
		}
		if len(decoded.Failures) != 2 || decoded.Failures[0].Class != "panic" || decoded.Failures[1].Class != "timeout" {
			t.Fatalf("json failures = %+v", decoded.Failures)
		}
	}
}

// TestNonTolerantPanicAborts pins the default mode: without Tolerate
// an injected panic surfaces as a *PanicError-wrapped sweep error —
// and, with workers, the panic neither deadlocks the runner nor kills
// the sibling goroutines (the process would die if it did).
func TestNonTolerantPanicAborts(t *testing.T) {
	s := baseSweep()
	s.Parallelism = 4
	s.Inject = func(cell, run int) error {
		if cell == 0 && run == 0 {
			panic("chaos: unhandled")
		}
		return nil
	}
	_, err := s.Run()
	if err == nil {
		t.Fatal("non-tolerant sweep should abort on the injected panic")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError in the chain", err)
	}
	if pe.Value != "chaos: unhandled" || !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("panic error = %+v, want the injected value and a stack", pe)
	}
}

// TestRunnerPanicDoesNotKillSiblings is the mid-sweep crash drill for
// the worker pool itself (run with -race in CI): a panic outside the
// trial — here in the Progress hook of run 7 — while 8 workers chew
// through 40 runs must be recovered into Run's error, not kill the
// process or deadlock the pool, and the siblings already in flight
// must complete (no new run is claimed after it, the fail-fast
// contract).
func TestRunnerPanicDoesNotKillSiblings(t *testing.T) {
	var completed atomic.Int32
	sw := gridSweep(40, 8, func(int) error {
		completed.Add(1)
		return errSkip
	})
	sw.Tolerate = true
	sw.Progress = func(d RunDone) {
		if d.Run == 7 {
			panic(fmt.Sprintf("run %d crashed", d.Run))
		}
	}
	_, err := sw.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if got := completed.Load(); got < 8 {
		t.Fatalf("completed runs = %d, want at least the 8 up to the crash", got)
	}
}
