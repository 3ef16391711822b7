package labd

import (
	"slices"
	"sync"

	"repro/internal/artifact"
	"repro/internal/lab"
)

// Job states. A job moves queued → running → done/failed/interrupted;
// a failed or interrupted job returns to queued when its spec is
// resubmitted (resuming from its stored records).
const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued = "queued"
	// StateRunning: executing on a worker.
	StateRunning = "running"
	// StateDone: completed; results and sealed manifest available.
	StateDone = "done"
	// StateFailed: aborted on an error (non-tolerant failure or
	// store trouble); resubmission retries.
	StateFailed = "failed"
	// StateInterrupted: gracefully drained mid-run; the completed
	// records are stored and resubmission resumes.
	StateInterrupted = "interrupted"
)

// terminal reports whether a state ends the event stream.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateInterrupted
}

// RunEvent is one per-run completion: grid position, axis label,
// whether the store served it, and the full result record.
type RunEvent struct {
	// Cell and Run locate the record in the sweep grid.
	Cell int `json:"cell"`
	// Run is the seeded repetition index within the cell.
	Run int `json:"run"`
	// Label is the cell's axis label ("8", "30s", "gao-rexford").
	Label string `json:"label"`
	// Cached reports a store hit (no emulation ran).
	Cached bool `json:"cached"`
	// Result is the run's full metrics record, epochs included.
	Result lab.Result `json:"result"`
}

// Event is one entry of a job's append-only event log. Seq numbers
// events from 1 within the job; a subscriber that replays from its
// last seen Seq receives every event exactly once.
type Event struct {
	// Seq is the event's position in the job's log, from 1.
	Seq int `json:"seq"`
	// Type discriminates the payload: "state" or "run".
	Type string `json:"type"`
	// Job is the owning job's ID (spec hash).
	Job string `json:"job"`
	// State carries the new state for "state" events.
	State string `json:"state,omitempty"`
	// Error carries the failure text of a terminal "state" event.
	Error string `json:"error,omitempty"`
	// Run carries the per-run completion for "run" events.
	Run *RunEvent `json:"run,omitempty"`
	// Stats carries the execution stats on a terminal "state" event.
	Stats *artifact.RunStats `json:"stats,omitempty"`
}

// JobStatus is the wire snapshot of one job.
type JobStatus struct {
	// ID is the spec hash — the job's content address.
	ID string `json:"id"`
	// Name labels the sweep in encoder output (presentation only).
	Name string `json:"name"`
	// State is the current job state.
	State string `json:"state"`
	// Clients lists the clients coalesced onto this job, sorted.
	Clients []string `json:"clients"`
	// Total is the sweep's (cell, run) grid size.
	Total int `json:"total"`
	// Completed counts the current attempt's per-run completions so
	// far (hits + fresh).
	Completed int `json:"completed"`
	// Events is the current length of the job's event log.
	Events int `json:"events"`
	// Error is the terminal error text, when failed/interrupted.
	Error string `json:"error,omitempty"`
	// Stats reports the last execution's store traffic, when the job
	// has reached a terminal state.
	Stats *artifact.RunStats `json:"stats,omitempty"`
}

// Job is one accepted spec: its identity, its sweep, its subscriber
// event log, and its lifecycle state. All mutation goes through the
// mutex; the event log is append-only, so subscribers iterate it
// lock-free once they have snapshotted a slice.
type Job struct {
	hash  string
	name  string
	spec  []byte
	sweep lab.Sweep

	mu        sync.Mutex
	changed   chan struct{} // closed and replaced on every append
	state     string
	errText   string
	clients   []string
	events    []Event
	completed int
	res       *lab.SweepResult
	stats     *artifact.RunStats
}

// newJob builds a queued job and seeds its event log with the queued
// state.
func newJob(hash, name string, spec []byte, sweep lab.Sweep) *Job {
	j := &Job{
		hash:    hash,
		name:    name,
		spec:    append([]byte(nil), spec...),
		sweep:   sweep,
		changed: make(chan struct{}),
		state:   StateQueued,
	}
	j.publish(Event{Type: "state", State: StateQueued})
	return j
}

// ID returns the job's spec hash.
func (j *Job) ID() string { return j.hash }

// Spec returns a copy of the canonical spec bytes.
func (j *Job) Spec() []byte { return append([]byte(nil), j.spec...) }

// State returns the current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the completed sweep result, or nil before StateDone.
func (j *Job) Result() *lab.SweepResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res
}

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.hash,
		Name:      j.name,
		State:     j.state,
		Clients:   append([]string(nil), j.clients...),
		Total:     j.sweep.Axis.Len() * j.sweep.Runs,
		Completed: j.completed,
		Events:    len(j.events),
		Error:     j.errText,
		Stats:     j.stats,
	}
}

// publish appends one event to the log and wakes subscribers. Callers
// must not hold j.mu.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
}

// appendLocked stamps and appends the event under j.mu.
func (j *Job) appendLocked(ev Event) {
	ev.Seq = len(j.events) + 1
	ev.Job = j.hash
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// publishRun records one per-run completion; it is the job sweep's
// Progress hook.
func (j *Job) publishRun(d lab.RunDone) {
	j.mu.Lock()
	j.completed++
	j.appendLocked(Event{Type: "run", Run: &RunEvent{
		Cell:   d.Cell,
		Run:    d.Run,
		Label:  j.sweep.Axis.Label(d.Cell),
		Cached: d.Cached,
		Result: d.Result,
	}})
	j.mu.Unlock()
}

// setState transitions the job and publishes the state event.
func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.appendLocked(Event{Type: "state", State: state})
	j.mu.Unlock()
}

// complete marks the job done with its result and stats.
func (j *Job) complete(res *lab.SweepResult, stats artifact.RunStats) {
	j.mu.Lock()
	j.state = StateDone
	j.res = res
	j.errText = ""
	j.stats = &stats
	j.appendLocked(Event{Type: "state", State: StateDone, Stats: j.stats})
	j.mu.Unlock()
}

// fail marks the job failed.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.errText = err.Error()
	j.appendLocked(Event{Type: "state", State: StateFailed, Error: j.errText})
	j.mu.Unlock()
}

// interrupt marks the job gracefully drained. stats may be nil (a job
// that never started).
func (j *Job) interrupt(stats *artifact.RunStats, why string) {
	j.mu.Lock()
	j.state = StateInterrupted
	j.errText = why
	if stats != nil {
		j.stats = stats
	}
	j.appendLocked(Event{Type: "state", State: StateInterrupted, Error: why, Stats: j.stats})
	j.mu.Unlock()
}

// requeue returns a failed/interrupted job to the queue (the caller
// enqueues it on the scheduler). The new attempt counts its
// completions from zero: it reports its store hits again.
func (j *Job) requeue() {
	j.mu.Lock()
	j.state = StateQueued
	j.errText = ""
	j.completed = 0
	j.appendLocked(Event{Type: "state", State: StateQueued})
	j.mu.Unlock()
}

// addClient joins a client to the job's subscriber set (sorted,
// deduplicated).
func (j *Job) addClient(client string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i, found := slices.BinarySearch(j.clients, client); !found {
		j.clients = slices.Insert(j.clients, i, client)
	}
}

// Subscribe replays the job's event log from sequence after+1 onward
// and then follows live appends, invoking fn once per event in log
// order — every event is delivered exactly once per subscriber. It
// returns nil once the job reaches a terminal state and every logged
// event has been delivered, when cancel closes, or fn's error as soon
// as fn fails. (A job resubmitted after a terminal state starts a new
// stream segment; a subscriber that ended at the terminal event picks
// it up by resubscribing from its last seen sequence.)
func (j *Job) Subscribe(cancel <-chan struct{}, after int, fn func(Event) error) error {
	i := after
	if i < 0 {
		i = 0
	}
	for {
		j.mu.Lock()
		if i > len(j.events) {
			i = len(j.events)
		}
		pending := j.events[i:]
		done := terminal(j.state)
		ch := j.changed
		j.mu.Unlock()
		for _, ev := range pending {
			if err := fn(ev); err != nil {
				return err
			}
			i++
		}
		if done && len(pending) == 0 {
			return nil
		}
		if done {
			// Deliver anything that raced in, then re-check.
			continue
		}
		select {
		case <-ch:
		case <-cancel:
			return nil
		}
	}
}
