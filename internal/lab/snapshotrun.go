package lab

import (
	"repro/internal/experiment"
)

// The checkpoint seam of a trial: WarmupSnapshot records the warm-up
// as encoded bytes (experiment.Snapshot: its commands and where its
// kernel stood), RestoreWarmup replays them into a runnable experiment,
// and RunFromSnapshot measures from there. No sweep takes this path —
// Sweep.Run always calls Trial.Run — it exists for the fork benchmark
// and as the reference the snapshot-equivalence tests hold Run
// against. When the warm-up consumes no seeded draws (no MRAI jitter,
// no link loss) a snapshot taken under one seed restores under any
// other: the replay runs under the snapshot's seed, and the restore
// then re-derives the run's random streams from its own (the fork).

// RunFromSnapshot executes the trial like Run, with its warm-up
// replaced by restoring raw — WarmupSnapshot bytes of a trial that
// reaches the same converged state.
func (t Trial) RunFromSnapshot(raw []byte) (Result, error) {
	p, err := t.prepare()
	if err != nil {
		return Result{}, err
	}
	e, err := p.restore(raw)
	if err != nil {
		return Result{}, err
	}
	return p.measure(e)
}

// restore rebuilds a runnable warmed-up experiment from encoded
// snapshot bytes, re-deriving its random streams from the plan's own
// seed. The trial's wall limit holds from the restored state on; the
// replay itself runs without one.
func (p *prepared) restore(raw []byte) (*experiment.Experiment, error) {
	snap, err := experiment.DecodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	e, err := experiment.Restore(p.cfg, snap)
	if err != nil {
		return nil, err
	}
	e.K.WallLimit = p.trial.WallLimit
	return e, nil
}

// WarmupSnapshot runs only the trial's warm-up phase and returns its
// encoded snapshot. Exposed for the benchmarks and the
// snapshot-equivalence harness.
func (t Trial) WarmupSnapshot() ([]byte, error) {
	e, err := t.Warmup()
	if err != nil {
		return nil, err
	}
	snap, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	return experiment.EncodeSnapshot(snap)
}

// RestoreWarmup rebuilds the warmed-up experiment from WarmupSnapshot
// bytes of a trial that reaches the same converged state. The trial's
// Seed chooses the continuation's random streams — a different seed
// forks the warm-up.
func (t Trial) RestoreWarmup(raw []byte) (*experiment.Experiment, error) {
	p, err := t.prepare()
	if err != nil {
		return nil, err
	}
	return p.restore(raw)
}
