package labd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/bgp"
	"repro/internal/lab"
)

// testLabSweep is the tiny-but-real sweep the daemon tests run: a
// 4-AS clique withdrawal over two cluster sizes, one run per cell.
func testLabSweep() lab.Sweep {
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	return lab.Sweep{
		Name: "fig2",
		Base: lab.Trial{
			Topo:            lab.TopoSpec{Kind: "clique", N: 4},
			Event:           lab.Withdrawal,
			Timers:          timers,
			Debounce:        100 * time.Millisecond,
			ProcessingDelay: 25 * time.Millisecond,
		},
		Axis:       lab.SDNCounts(0, 2),
		Runs:       1,
		BaseSeed:   7,
		SeedPolicy: lab.SeedCellRun,
	}
}

// newTestServer builds an unstarted server over a fresh store.
// Submissions queue deterministically until Start.
func newTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return srv, dir
}

// postJSON posts a SubmitRequest and decodes the response envelope.
func postJSON(t *testing.T, url string, req SubmitRequest) (SubmitResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// waitDone subscribes to the job and blocks until it is terminal.
func waitDone(t *testing.T, srv *Server, id string) string {
	t.Helper()
	j, err := srv.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Subscribe(nil, 0, func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return j.State()
}

// TestSubmitCoalesceAndByteEquivalence is the tentpole pin: identical
// concurrent submissions coalesce into one execution; the daemon's
// sealed manifest and every encoder output are byte-identical to the
// same spec run through artifact.RunSweep (the `convergence -out`
// path); and a resubmission after completion performs zero emulation.
func TestSubmitCoalesceAndByteEquivalence(t *testing.T) {
	srv, dir := newTestServer(t)
	url, shutdown := serve(t, srv)
	defer shutdown()

	sw := testLabSweep()
	spec, err := sw.Canonical()
	if err != nil {
		t.Fatal(err)
	}

	// Two clients submit the identical spec before any worker runs:
	// the second must coalesce onto the first's job.
	r1, code := postJSON(t, url, SubmitRequest{Client: "alice", Name: "fig2", Spec: spec})
	if code != http.StatusCreated || r1.Coalesced {
		t.Fatalf("first submit: code %d coalesced %v", code, r1.Coalesced)
	}
	r2, code := postJSON(t, url, SubmitRequest{Client: "bob", Name: "ignored", Spec: spec})
	if code != http.StatusOK || !r2.Coalesced {
		t.Fatalf("second submit: code %d coalesced %v", code, r2.Coalesced)
	}
	if r1.Job.ID != r2.Job.ID {
		t.Fatalf("identical specs got distinct jobs %.12s, %.12s", r1.Job.ID, r2.Job.ID)
	}
	if got := r2.Job.Clients; len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("coalesced clients %v, want [alice bob]", got)
	}

	srv.Start()
	if st := waitDone(t, srv, r1.Job.ID); st != StateDone {
		t.Fatalf("job finished %s", st)
	}

	// Reference run: the same spec through the CLI's code path into a
	// second store.
	refDir := t.TempDir()
	refStore, err := artifact.Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := artifact.RunSweep(refStore, sw)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpecHash != r1.Job.ID {
		t.Fatalf("daemon job %.12s, CLI spec %.12s — not the same address", r1.Job.ID, stats.SpecHash)
	}

	// The sealed manifests are byte-identical.
	daemonManifest := httpGet(t, url+"/v1/jobs/"+r1.Job.ID[:12]+"/manifest")
	refManifest, err := os.ReadFile(filepath.Join(refDir, stats.SpecHash, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(daemonManifest, refManifest) {
		t.Fatalf("manifest bytes differ:\ndaemon: %s\ncli:    %s", daemonManifest, refManifest)
	}
	storeManifest, err := os.ReadFile(filepath.Join(dir, stats.SpecHash, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeManifest, refManifest) {
		t.Fatal("daemon store manifest differs from CLI store manifest")
	}

	// Every encoder output is byte-identical to lab.Write on the CLI
	// result.
	for _, f := range []lab.Format{lab.FormatTable, lab.FormatCSV, lab.FormatJSON, lab.FormatMarkdown} {
		var want bytes.Buffer
		if err := lab.Write(&want, f, res); err != nil {
			t.Fatal(err)
		}
		got := httpGet(t, url+"/v1/jobs/"+r1.Job.ID+"/result?format="+string(f))
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s output differs:\ndaemon:\n%s\ncli:\n%s", f, got, want.Bytes())
		}
	}

	// A third submission after completion coalesces onto the done job:
	// zero new emulation, stats unchanged.
	r3, code := postJSON(t, url, SubmitRequest{Client: "carol", Spec: spec})
	if code != http.StatusOK || !r3.Coalesced {
		t.Fatalf("post-completion submit: code %d coalesced %v", code, r3.Coalesced)
	}
	if r3.Job.State != StateDone {
		t.Fatalf("post-completion submit state %s", r3.Job.State)
	}
	if r3.Job.Stats == nil || r3.Job.Stats.Executed != 2 || r3.Job.Stats.Hits != 0 {
		t.Fatalf("post-completion stats %+v changed", r3.Job.Stats)
	}
}

// serve starts an httptest server over the daemon handler.
func serve(t *testing.T, srv *Server) (string, func()) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, func() {
		srv.Drain()
		ts.Close()
	}
}

// httpGet fetches a URL's body.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// sseEvents reads one SSE stream to completion, decoding every data
// payload.
func sseEvents(t *testing.T, url string) []Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSSEExactlyOnce pins the telemetry contract: every SSE
// subscriber — early or late — receives every per-run completion
// event exactly once, in log order, ending with the terminal state.
func TestSSEExactlyOnce(t *testing.T) {
	srv, _ := newTestServer(t)
	url, shutdown := serve(t, srv)
	defer shutdown()

	sw := testLabSweep()
	spec, err := sw.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	r, code := postJSON(t, url, SubmitRequest{Client: "alice", Name: "fig2", Spec: spec})
	if code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}

	// Two subscribers attach while the job is still queued.
	type streamResult struct{ events []Event }
	streams := make(chan streamResult, 3)
	for i := 0; i < 2; i++ {
		go func() {
			streams <- streamResult{sseEvents(t, url+"/v1/jobs/"+r.Job.ID+"/events")}
		}()
	}
	// Give the early subscribers a beat to connect before work starts,
	// so the test exercises the live-follow path, not just replay.
	time.Sleep(50 * time.Millisecond)
	srv.Start()
	if st := waitDone(t, srv, r.Job.ID); st != StateDone {
		t.Fatalf("job finished %s", st)
	}
	// A late subscriber replays the completed log.
	go func() {
		streams <- streamResult{sseEvents(t, url+"/v1/jobs/"+r.Job.ID+"/events")}
	}()

	total := sw.Axis.Len() * sw.Runs
	for i := 0; i < 3; i++ {
		st := <-streams
		runs := map[[2]int]int{}
		last := 0
		for _, ev := range st.events {
			if ev.Seq != last+1 {
				t.Fatalf("subscriber %d: seq %d after %d (gap or duplicate)", i, ev.Seq, last)
			}
			last = ev.Seq
			if ev.Type == "run" {
				runs[[2]int{ev.Run.Cell, ev.Run.Run}]++
			}
		}
		if len(runs) != total {
			t.Fatalf("subscriber %d: saw %d distinct runs, want %d", i, len(runs), total)
		}
		for pos, n := range runs {
			if n != 1 {
				t.Fatalf("subscriber %d: run %v delivered %d times", i, pos, n)
			}
		}
		final := st.events[len(st.events)-1]
		if final.Type != "state" || final.State != StateDone {
			t.Fatalf("subscriber %d: stream ended on %s/%s", i, final.Type, final.State)
		}
	}
}

// TestSSEResumeFrom pins cursor resume: a subscriber reconnecting
// with from=<seq> sees exactly the suffix.
func TestSSEResumeFrom(t *testing.T) {
	srv, _ := newTestServer(t)
	url, shutdown := serve(t, srv)
	defer shutdown()
	spec, err := testLabSweep().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := postJSON(t, url, SubmitRequest{Client: "alice", Spec: spec})
	srv.Start()
	waitDone(t, srv, r.Job.ID)
	all := sseEvents(t, url+"/v1/jobs/"+r.Job.ID+"/events")
	if len(all) < 3 {
		t.Fatalf("short event log: %d events", len(all))
	}
	tail := sseEvents(t, url+fmt.Sprintf("/v1/jobs/%s/events?from=%d", r.Job.ID, all[1].Seq))
	if len(tail) != len(all)-2 {
		t.Fatalf("resume from %d returned %d events, want %d", all[1].Seq, len(tail), len(all)-2)
	}
	if tail[0].Seq != all[2].Seq {
		t.Fatalf("resume started at seq %d, want %d", tail[0].Seq, all[2].Seq)
	}
}

// TestPresetSubmission pins the preset bridge: submitting a preset
// with options produces the same job identity as submitting the
// equivalent locally-built canonical spec — the registry over the API
// is the registry in the CLI.
func TestPresetSubmission(t *testing.T) {
	srv, _ := newTestServer(t)
	url, shutdown := serve(t, srv)
	defer shutdown()

	spec, err := BuildPreset("fig2", PresetOptions{
		Topology:  "clique 4",
		SDNCounts: []int{0, 2},
		Runs:      1,
		Seed:      1,
		MRAI:      "5s",
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, code := postJSON(t, url, SubmitRequest{Client: "alice", Preset: "fig2", Options: &PresetOptions{
		Topology:  "clique 4",
		SDNCounts: []int{0, 2},
		Runs:      1,
		Seed:      1,
		MRAI:      "5s",
	}})
	if code != http.StatusCreated {
		t.Fatalf("preset submit: %d", code)
	}
	if r1.Job.Name != "fig2" {
		t.Fatalf("preset job name %q", r1.Job.Name)
	}
	r2, code := postJSON(t, url, SubmitRequest{Client: "bob", Spec: spec})
	if code != http.StatusOK || !r2.Coalesced {
		t.Fatalf("equivalent raw spec did not coalesce (code %d)", code)
	}
	if r1.Job.ID != r2.Job.ID {
		t.Fatal("preset and equivalent raw spec got distinct job identities")
	}
}

// TestSubmitRejectsBadSpecs pins the admission errors.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	smallRingSweep, err := lab.Sweep{
		Base: lab.Trial{Topo: lab.TopoSpec{Kind: "ring", N: 4}},
		Axis: lab.TopoSizes(2, 4),
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	badBase := func(mutate func(*lab.Trial)) json.RawMessage {
		sw := testLabSweep()
		mutate(&sw.Base)
		spec, err := sw.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	srv, _ := newTestServer(t)
	url, shutdown := serve(t, srv)
	defer shutdown()
	cases := map[string]SubmitRequest{
		"no payload":     {Client: "x"},
		"both payloads":  {Client: "x", Preset: "fig2", Spec: json.RawMessage(`{}`)},
		"junk spec":      {Client: "x", Spec: json.RawMessage(`{"version":99}`)},
		"unknown preset": {Client: "x", Preset: "fig999"},
		// Admitted once, then every run failed (or ran the 30s default).
		"zero mrai":                 {Client: "x", Preset: "fig2", Options: &PresetOptions{MRAI: "0"}},
		"negative delay":            {Client: "x", Preset: "fig2", Options: &PresetOptions{Delay: "-20ms"}},
		"ring too small":            {Client: "x", Preset: "fig2", Options: &PresetOptions{Topology: "ring 2"}},
		"er probability":            {Client: "x", Preset: "fig2", Options: &PresetOptions{Topology: "er 5 NaN"}},
		"size axis value too small": {Client: "x", Spec: smallRingSweep},
		// Admitted once, then no session ever opened.
		"hold time under 3s": {Client: "x", Spec: badBase(func(tr *lab.Trial) { tr.Timers.HoldTime = 2 * time.Second })},
		// Admitted once, then every run failed or ran with no MRAI at
		// all.
		"link loss over 1":    {Client: "x", Spec: badBase(func(tr *lab.Trial) { tr.LinkLoss = 1.5 })},
		"negative base mrai":  {Client: "x", Spec: badBase(func(tr *lab.Trial) { tr.Timers.MRAI = -time.Second })},
		"negative link delay": {Client: "x", Spec: badBase(func(tr *lab.Trial) { tr.LinkDelay = -time.Millisecond })},
		// The quiescence window follows the MRAI; the retired field
		// admits only the 0 it encodes as.
		"settle window": {Client: "x", Spec: json.RawMessage(bytes.Replace(badBase(func(*lab.Trial) {}),
			[]byte(`"settle_ns":0`), []byte(`"settle_ns":10000000000`), 1))},
	}
	for name, req := range cases {
		if _, code := postJSON(t, url, req); code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", name, code)
		}
	}
	// A body is one request: anything after it but white space is
	// refused, however well-formed the request before it.
	for name, body := range map[string]string{
		"trailing garbage": `{"client":"x","preset":"fig2"} junk`,
		"trailing bracket": `{"client":"x","preset":"fig2"}]`,
		"second request":   `{"client":"x","preset":"fig2"}{"client":"y","preset":"fig2"}`,
	} {
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", name, resp.StatusCode)
		}
	}

	// A body over the bound is refused before it is decoded in full.
	body := `{"client":"` + strings.Repeat("x", maxSubmitBytes) + `"}`
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code %d, want 413", resp.StatusCode)
	}
}

// TestDrainInterruptsQueued pins shutdown bookkeeping: a job still
// queued at Drain is marked interrupted (with the store untouched),
// and a later daemon over the same store re-runs it on resubmission.
func TestDrainInterruptsQueued(t *testing.T) {
	srv, dir := newTestServer(t)
	spec, err := testLabSweep().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	j, coalesced, err := srv.Submit("alice", "fig2", spec)
	if err != nil || coalesced {
		t.Fatalf("submit: %v coalesced=%v", err, coalesced)
	}
	srv.Drain() // never started: the queued job is interrupted
	if st := j.State(); st != StateInterrupted {
		t.Fatalf("drained queued job is %s", st)
	}
	if _, _, err := srv.Submit("alice", "fig2", spec); err == nil {
		t.Fatal("draining server accepted a submission")
	}

	// A fresh daemon over the same store accepts the spec again and
	// completes it.
	store, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Store: store, Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	j2, _, err := srv2.Submit("alice", "fig2", spec)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Drain()
	if st := waitDone(t, srv2, j2.ID()); st != StateDone {
		t.Fatalf("resubmitted job finished %s", st)
	}
}

// TestResubmitAfterInterrupt pins in-process resume bookkeeping: an
// interrupted job returns to the queue when its spec is resubmitted.
func TestResubmitAfterInterrupt(t *testing.T) {
	srv, _ := newTestServer(t)
	spec, err := testLabSweep().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := srv.Submit("alice", "fig2", spec)
	if err != nil {
		t.Fatal(err)
	}
	j.interrupt(nil, "synthetic interruption")
	j2, coalesced, err := srv.Submit("bob", "fig2", spec)
	if err != nil {
		t.Fatal(err)
	}
	if coalesced || j2 != j {
		t.Fatalf("resubmission coalesced=%v job=%p want requeue of %p", coalesced, j2, j)
	}
	if st := j.State(); st != StateQueued {
		t.Fatalf("resubmitted job is %s, want queued", st)
	}
}

// TestResubmitCountsFromZero pins the per-attempt completion counter:
// a job whose second run fails is resubmitted twice, every attempt
// serves the first run from the store again, and Completed restarts
// from zero instead of counting that hit once per attempt.
func TestResubmitCountsFromZero(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.Start()
	defer srv.Drain()
	// K=4 puts every AS of the 4-clique in the cluster and leaves no
	// legacy AS to hijack from, so the second cell fails every time
	// (the registry refuses such a preset; a raw spec gets through).
	sw := testLabSweep()
	sw.Base.Event = lab.Hijack
	sw.Axis = lab.SDNCounts(0, 4)
	spec, err := sw.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		j, _, err := srv.Submit("alice", "hijack", spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, srv, j.ID()); st != StateFailed {
			t.Fatalf("attempt %d finished %s, want failed", attempt, st)
		}
		if st := j.Status(); st.Completed != 1 || st.Total != 2 {
			t.Fatalf("attempt %d: completed %d of %d, want 1 of 2", attempt, st.Completed, st.Total)
		}
	}
}

// TestNewRejectsBadConfig pins the daemon's own admission checks: a
// missing store, and a negative per-job parallelism that Sweep.Run
// would refuse for every job.
func TestNewRejectsBadConfig(t *testing.T) {
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"no store", Config{Workers: 1}},
		{"negative parallelism", Config{Store: store, Workers: 1, Parallelism: -1}},
	} {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", c.name, c.cfg)
		}
	}
}
