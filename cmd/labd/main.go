// Command labd is the lab-as-a-service daemon: a resident process
// that accepts canonical sweep specs over HTTP/JSON, schedules them
// on a shared runner with per-client fair queueing, and streams
// per-run telemetry over Server-Sent Events. The daemon adds no
// semantics of its own — every job runs through the same artifact
// store path as `convergence -out`, so a sweep submitted here yields
// the byte-identical sealed manifest and encoder outputs, identical
// concurrent submissions coalesce into one execution, and a spec the
// store has already sealed returns its results with zero emulation.
//
// Usage:
//
//	labd -store results/                       # listen on :8080 over this
//	                                           # artifact store
//	labd -store results/ -addr 127.0.0.1:9999  # explicit listen address
//	labd -store results/ -jobs 2 -parallel 4   # run 2 jobs concurrently,
//	                                           # 4 emulation runs each
//
// The API (see internal/labd for the wire types):
//
//	GET  /v1/healthz             liveness
//	GET  /v1/status              workers, queue depths, job-state counts
//	GET  /v1/presets             the experiment registry as named presets
//	POST /v1/jobs                submit {"client","name","spec":{...}} or
//	                             {"client","preset":"fig2","options":{...}}
//	GET  /v1/jobs                all jobs, submission order
//	GET  /v1/jobs/{id}           one job (id = spec hash or ≥8-digit prefix)
//	GET  /v1/jobs/{id}/spec      the canonical spec bytes
//	GET  /v1/jobs/{id}/result    ?format=table|csv|json|markdown
//	GET  /v1/jobs/{id}/manifest  the sealed manifest from the store
//	GET  /v1/jobs/{id}/events    SSE event log (?from=<seq> resumes)
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight runs (their records flush to the store and a partial
// manifest is sealed), marks unfinished jobs interrupted and exits 0;
// resubmitting the same spec to a fresh daemon over the same store
// resumes from the stored records. A second signal force-quits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/labd"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	storeDir := flag.String("store", "", "artifact store directory (required): jobs are content-addressed by spec hash, completed runs are cached and interrupted jobs resume from their stored records")
	jobs := flag.Int("jobs", 1, "jobs executed concurrently (each job is one sweep; clients are served round-robin)")
	parallel := flag.Int("parallel", 1, "concurrent emulation runs within one job (results are identical at any setting)")
	flag.Parse()

	if *storeDir == "" {
		fatal(fmt.Errorf("-store is required (the daemon is stateless apart from its artifact store)"))
	}
	store, err := artifact.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	srv, err := labd.New(labd.Config{Store: store, Workers: *jobs, Parallelism: *parallel})
	if err != nil {
		fatal(err)
	}
	srv.Start()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "labd: listening on %s, store %s, %d job worker(s) × %d-way runs\n",
		*addr, *storeDir, *jobs, *parallel)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fatal(err)
	case <-sigc:
	}
	fmt.Fprintln(os.Stderr, "labd: interrupt — draining in-flight runs (interrupt again to force quit)")
	go func() {
		<-sigc
		os.Exit(130)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	//lint:errcheck shutdown is best-effort; the drain below is what preserves work
	hs.Shutdown(ctx)
	srv.Drain()
	fmt.Fprintln(os.Stderr, "labd: drained; unfinished jobs are resumable from the store")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "labd:", err)
	os.Exit(1)
}
