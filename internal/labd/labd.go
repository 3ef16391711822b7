// Package labd is the lab-as-a-service layer: a resident daemon that
// multiplexes many experimenters over one hot artifact store. Clients
// submit canonical sweep specs (lab.Sweep.Canonical — the wire format
// and the dedup key), the server schedules them on a shared worker
// pool through a multi-tenant queue with per-client fair scheduling,
// and every per-run completion streams to SSE subscribers as it lands.
//
// The daemon adds no semantics of its own — that is the design
// invariant. A job is one artifact.RunSweep call, the code path of
// `convergence -out`, so a sweep run through the daemon produces
// byte-identical records, manifests and encoder outputs to the same
// spec run from the CLI. What the daemon adds is residency: the spec
// hash is the job identity, so a resubmitted spec is served from the
// store with zero emulation, identical concurrent submissions
// coalesce into one execution with fanned-out subscribers, and an
// interrupted job resumes from its partial records on the next
// submission.
package labd

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/artifact"
	"repro/internal/lab"
)

// Config assembles a Server.
type Config struct {
	// Store is the shared content-addressed artifact store every job
	// reads and writes. Required.
	Store *artifact.Store
	// Workers bounds the number of concurrently executing jobs
	// (default 1). Total emulation parallelism is Workers ×
	// Parallelism.
	Workers int
	// Parallelism bounds concurrent emulation runs within one job
	// (lab.Sweep.Parallelism; 0 = GOMAXPROCS; New refuses a negative
	// value).
	Parallelism int
}

// Server is the daemon state: the shared store, the fair scheduler,
// and the job index keyed by spec hash.
type Server struct {
	store       *artifact.Store
	workers     int
	parallelism int

	sched *scheduler
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job // by full spec hash
	order    []*Job          // submission order (the deterministic listing)
	started  bool
	draining bool
}

// New builds a Server from the config. Call Start to launch the
// worker pool; the HTTP handler (Handler) is usable before Start —
// submissions queue until workers exist, which is also the test seam
// for deterministic coalescing.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("labd: config needs a store")
	}
	if cfg.Parallelism < 0 {
		// Sweep.Run would refuse every job; refuse the daemon instead.
		return nil, fmt.Errorf("labd: parallelism %d is negative (0 = GOMAXPROCS)", cfg.Parallelism)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	return &Server{
		store:       cfg.Store,
		workers:     workers,
		parallelism: cfg.Parallelism,
		sched:       newScheduler(),
		stop:        make(chan struct{}),
		jobs:        map[string]*Job{},
	}, nil
}

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.draining {
		return
	}
	s.started = true
	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain gracefully shuts the server down: no new submissions are
// accepted, no queued job starts, running jobs drain (in-flight cells
// finish and flush their records, the partial manifest seals), and
// every job left unfinished is marked interrupted — the store is
// resumable, so resubmitting an interrupted spec picks up where it
// stopped. Drain blocks until the workers exit. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.order {
		if st := j.State(); st == StateQueued || st == StateRunning {
			j.interrupt(nil, "daemon drained before the job finished")
		}
	}
}

// Submit files a canonical spec for execution on behalf of client.
// The spec's SHA-256 is the job identity: a spec already known —
// queued, running or done — coalesces onto the existing job (the
// second return is true) and the client joins its subscriber set; a
// failed or interrupted job is re-enqueued, resuming from whatever
// records its earlier attempts stored. name labels the sweep in
// encoder output and the sealed manifest (presentation only — it does
// not participate in the job identity; the first submission's name
// wins).
func (s *Server) Submit(client, name string, spec []byte) (*Job, bool, error) {
	sweep, err := lab.ParseCanonical(spec)
	if err != nil {
		return nil, false, err
	}
	if client == "" {
		client = "anonymous"
	}
	sum := sha256.Sum256(spec)
	hash := hex.EncodeToString(sum[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errors.New("labd: draining, not accepting jobs")
	}
	if j := s.jobs[hash]; j != nil {
		j.addClient(client)
		switch j.State() {
		case StateFailed, StateInterrupted:
			// Resubmission retries: records already stored replay as
			// cache hits, so only the missing grid positions execute.
			j.requeue()
			s.sched.enqueue(client, j)
			return j, false, nil
		default:
			return j, true, nil
		}
	}
	if name == "" {
		name = hash[:12]
	}
	sweep.Name = name
	j := newJob(hash, name, spec, sweep)
	j.addClient(client)
	s.jobs[hash] = j
	s.order = append(s.order, j)
	s.sched.enqueue(client, j)
	return j, false, nil
}

// Job finds a job by its full spec hash or a unique prefix (at least
// 8 hex digits).
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j, nil
	}
	if len(id) < 8 {
		return nil, fmt.Errorf("labd: job id %q too short (want >= 8 hex digits)", id)
	}
	var found *Job
	for _, j := range s.order {
		if len(id) <= len(j.hash) && j.hash[:len(id)] == id {
			if found != nil {
				return nil, fmt.Errorf("labd: job id %q is ambiguous", id)
			}
			found = j
		}
	}
	if found == nil {
		return nil, fmt.Errorf("labd: no job %q", id)
	}
	return found, nil
}

// Jobs snapshots every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, len(s.order))
	for i, j := range s.order {
		out[i] = j.Status()
	}
	return out
}

// Status is the daemon-level status snapshot.
type Status struct {
	// Workers is the configured job concurrency.
	Workers int `json:"workers"`
	// Parallelism is the per-job emulation parallelism (0 =
	// GOMAXPROCS).
	Parallelism int `json:"parallelism"`
	// Draining reports whether Drain has begun.
	Draining bool `json:"draining"`
	// Jobs counts jobs by state, keys sorted.
	Jobs map[string]int `json:"jobs"`
	// Queued counts queued jobs per client, keys sorted.
	Queued map[string]int `json:"queued"`
}

// Status snapshots the daemon state.
func (s *Server) Status() Status {
	s.mu.Lock()
	st := Status{
		Workers:     s.workers,
		Parallelism: s.parallelism,
		Draining:    s.draining,
		Jobs:        map[string]int{},
	}
	for _, j := range s.order {
		st.Jobs[j.State()]++
	}
	s.mu.Unlock()
	st.Queued = s.sched.depths()
	return st
}

// worker pulls jobs off the fair scheduler until Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.dequeue(s.stop)
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job as `convergence -out` does, through
// artifact.RunSweep; the only addition is telemetry — every finished
// run is published to the job's event log.
func (s *Server) runJob(j *Job) {
	j.setState(StateRunning)
	sw := j.sweep
	sw.Parallelism = s.parallelism
	sw.Stop = s.stop
	sw.Progress = j.publishRun
	res, stats, err := artifact.RunSweep(s.store, sw)
	switch {
	case err == nil:
		j.complete(res, stats)
	case errors.Is(err, lab.ErrStopped):
		// Graceful drain: RunSweep sealed the partial manifest, and the
		// stored records resume the job later.
		j.interrupt(&stats, "drained mid-run; resubmit to resume")
	default:
		j.fail(err)
	}
}

// depths snapshots the per-client queue depths with sorted keys.
func (s *scheduler) depths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	clients := append([]string(nil), s.order...)
	slices.Sort(clients)
	for _, c := range clients {
		if n := len(s.queues[c]); n > 0 {
			out[c] = n
		}
	}
	return out
}
