package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/lab"
	"repro/internal/sim"
)

// forkWorkload restores one warmed-up experiment per op from snapshot
// bytes that set-up produced: Trial.RestoreWarmup untraced, prepare +
// DecodeSnapshot + Restore traced.
type forkWorkload struct {
	base lab.Trial
	seed int64

	raw []byte
	// events and nowNS are the kernel counters recorded at warm-up;
	// every restore must land on exactly them.
	events uint64
	nowNS  int64
}

// forked is op i's trial: the warm-up's spec under a fresh seed.
func (w *forkWorkload) forked(i int) lab.Trial {
	t := w.base
	t.Seed = w.seed + 1 + int64(i)
	return t
}

func (w *forkWorkload) setUp(tr *tracer) error {
	warm := w.base
	warm.Seed = w.seed
	var err error
	if tr == nil {
		w.raw, err = warm.WarmupSnapshot()
	} else {
		w.raw, err = tracedSnapshot(warm, tr)
	}
	if err != nil {
		return err
	}
	snap, err := experiment.DecodeSnapshot(w.raw)
	if err != nil {
		return err
	}
	w.events, w.nowNS = snap.Kernel.Events, snap.Kernel.NowNS
	_, err = w.op(-1)
	return err
}

// tracedSnapshot is Trial.WarmupSnapshot made from outside.
func tracedSnapshot(t lab.Trial, tr *tracer) ([]byte, error) {
	e, _, err := tracedWarmup(t, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("experiment.snapshot")
	snap, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	sp = tr.begin("experiment.encode")
	raw, err := experiment.EncodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	tr.watch(nil)
	return raw, nil
}

func (w *forkWorkload) op(i int) ([]byte, error) {
	e, err := w.forked(i).RestoreWarmup(w.raw)
	if err != nil {
		return nil, err
	}
	return w.record(e)
}

func (w *forkWorkload) tracedOp(i int, tr *tracer) ([]byte, error) {
	cfg, _, err := tracedConfig(w.forked(i), tr)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("experiment.decode")
	snap, err := experiment.DecodeSnapshot(w.raw)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	sp = tr.begin("experiment.restore")
	e, err := experiment.Restore(cfg, snap)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	return w.record(e)
}

// record checks that the restore executed no kernel event and landed
// on the warm-up's clock, and returns what the restore produced.
func (w *forkWorkload) record(e *experiment.Experiment) ([]byte, error) {
	events, nowNS := e.K.Events(), sim.TimeToNS(e.K.Now())
	if events != w.events || nowNS != w.nowNS {
		return nil, fmt.Errorf("restore landed on events=%d now=%dns, warm-up recorded events=%d now=%dns",
			events, nowNS, w.events, w.nowNS)
	}
	return json.Marshal(map[string]any{
		"events": events, "now_ns": nowNS,
		"routers": len(e.Routers), "switches": len(e.Switches), "pending": e.K.Pending(),
	})
}

// finish checks restore determinism on the traced pass: two restores
// of the same bytes under the same seed re-encode identically. (A
// restore does not re-encode to the original document, so that is not
// asserted.)
func (w *forkWorkload) finish(tr *tracer, m *metricSet) error {
	if tr == nil {
		return nil
	}
	m.set("experiment.snapshot_mb", float64(len(w.raw))/1e6)
	var docs [2][]byte
	for i := range docs {
		e, err := w.forked(0).RestoreWarmup(w.raw)
		if err != nil {
			return err
		}
		snap, err := e.Snapshot()
		if err != nil {
			return err
		}
		if docs[i], err = experiment.EncodeSnapshot(snap); err != nil {
			return err
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		return fmt.Errorf("two restores of the same snapshot under seed %d re-encode differently (%d vs %d bytes)",
			w.forked(0).Seed, len(docs[0]), len(docs[1]))
	}
	return nil
}

func (w *forkWorkload) close() error {
	w.raw = nil
	return nil
}
