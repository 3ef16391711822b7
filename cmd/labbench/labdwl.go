package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/artifact"
	"repro/internal/lab"
	"repro/internal/labd"
	"repro/internal/stats"
)

// labdWorkload submits one fig2 sweep per op to an in-process labd
// server over loopback HTTP and reads the result back: cold submit,
// drain the event stream to the terminal state, fetch the result,
// then resubmit the same spec a few times (sealed hits, no emulation).
type labdWorkload struct {
	sz   sizes
	seed int64

	dir   string
	store *artifact.Store
	srv   *labd.Server
	ts    *httptest.Server

	// Filled by the ops for the per-layer numbers.
	events      int
	resultBytes int
}

// hitsPerOp is how often each op resubmits its sealed spec.
const hitsPerOp = 5

func (w *labdWorkload) total() int { return len(w.sz.sdnCounts) * w.sz.runs }

// options is op i's preset submission.
func (w *labdWorkload) options(i int) labd.PresetOptions {
	return labd.PresetOptions{
		Topology:  fmt.Sprintf("clique %d", w.sz.clique),
		SDNCounts: w.sz.sdnCounts,
		Runs:      w.sz.runs,
		Seed:      w.seed + int64(i),
	}
}

func (w *labdWorkload) setUp(tr *tracer) error {
	if err := w.start(); err != nil {
		return err
	}
	_, err := w.op(-1)
	return err
}

// start opens an empty store under a fresh directory and serves it.
func (w *labdWorkload) start() error {
	if err := os.MkdirAll(w.sz.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.sz.tmp, "labd-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.store, err = artifact.Open(filepath.Join(dir, "store")); err != nil {
		return err
	}
	if w.srv, err = labd.New(labd.Config{Store: w.store, Workers: 1}); err != nil {
		return err
	}
	w.srv.Start()
	w.ts = httptest.NewServer(w.srv.Handler())
	return nil
}

func (w *labdWorkload) close() error {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Drain()
		w.ts = nil
	}
	if w.dir == "" {
		return nil
	}
	dir := w.dir
	w.dir = ""
	return os.RemoveAll(dir)
}

func (w *labdWorkload) op(i int) ([]byte, error) { return w.tracedOp(i, nil) }

// tracedOp is the one implementation of the op: the HTTP round trips
// are already calls into labd's public surface, so tracing only adds
// spans around them (a nil tracer records nothing).
func (w *labdWorkload) tracedOp(i int, tr *tracer) ([]byte, error) {
	opt := w.options(i)
	body, err := json.Marshal(labd.SubmitRequest{Client: "labbench", Preset: "fig2", Options: &opt})
	if err != nil {
		return nil, err
	}

	coldSpan := tr.begin("labd.cold")
	sp := tr.begin("labd.submit")
	id, err := w.submit(body, http.StatusCreated)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	sp = tr.begin("labd.wait")
	n, err := w.drain(id)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	sp = tr.begin("labd.fetch")
	cold, err := w.get("/v1/jobs/" + id + "/result?format=json")
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	tr.end(coldSpan)
	sp = tr.begin("labd.status")
	if err := w.executed(id); err != nil {
		return nil, err
	}
	tr.end(sp)
	w.events, w.resultBytes = n, len(cold)

	for h := 0; h < hitsPerOp; h++ {
		sp = tr.begin("labd.hit")
		hit, err := w.submit(body, http.StatusOK)
		if err != nil {
			return nil, err
		}
		if hit != id {
			return nil, fmt.Errorf("resubmission landed on job %.12s, cold submit on %.12s", hit, id)
		}
		if _, err := w.drain(id); err != nil {
			return nil, err
		}
		again, err := w.get("/v1/jobs/" + id + "/result?format=json")
		if err != nil {
			return nil, err
		}
		tr.end(sp)
		if !bytes.Equal(again, cold) {
			return nil, fmt.Errorf("job %.12s: re-fetched result differs from the cold fetch", id)
		}
	}
	if err := w.executed(id); err != nil {
		return nil, err
	}
	if w.seed+int64(i) == 1 && w.sz.clique == 16 {
		if err := fig2Pins(cold); err != nil {
			return nil, err
		}
	}
	return cold, nil
}

// submit posts body and returns the job ID; the status code must be
// want (201 for a new spec, 200 for one the server already holds).
func (w *labdWorkload) submit(body []byte, want int) (string, error) {
	resp, err := w.ts.Client().Post(w.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	if resp.StatusCode != want {
		return "", fmt.Errorf("submit: status %d, want %d: %s", resp.StatusCode, want, data)
	}
	var sr labd.SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return "", err
	}
	return sr.Job.ID, nil
}

// get fetches one API path and insists on 200.
func (w *labdWorkload) get(path string) ([]byte, error) {
	resp, err := w.ts.Client().Get(w.ts.URL + path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, data)
	}
	return data, nil
}

// drain reads the job's event stream to its end, which the server
// reaches at the terminal state, and returns the number of events.
// The terminal state must be "done".
func (w *labdWorkload) drain(id string) (int, error) {
	resp, err := w.ts.Client().Get(w.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(resp.Body)
	// A run event carries a whole lab.Result on one line.
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	n, last := 0, ""
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			n++
			last = data
		}
	}
	err = sc.Err()
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	var ev labd.Event
	if err := json.Unmarshal([]byte(last), &ev); err != nil {
		return 0, fmt.Errorf("job %.12s: last event %q: %w", id, last, err)
	}
	if ev.State != labd.StateDone {
		return 0, fmt.Errorf("job %.12s ended %q (%s), want %q", id, ev.State, ev.Error, labd.StateDone)
	}
	return n, nil
}

// executed checks that the job emulated its whole grid exactly once:
// the cold run executes every cell, a resubmission none.
func (w *labdWorkload) executed(id string) error {
	data, err := w.get("/v1/jobs/" + id)
	if err != nil {
		return err
	}
	var st labd.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.Stats == nil || st.Stats.Executed != w.total() {
		return fmt.Errorf("job %.12s: stats %+v, want executed == %d", id, st.Stats, w.total())
	}
	return nil
}

// fig2Pins checks the paper-config numbers every byte-equality suite
// in the repo pins: seed 1, clique 16, SDN counts 0..16 by 4, 3 runs.
func fig2Pins(result []byte) error {
	var doc struct {
		Cells []struct {
			MedS float64 `json:"med_s"`
		} `json:"cells"`
		Fit *struct {
			SlopeS float64 `json:"slope_s"`
			R2     float64 `json:"r2"`
		} `json:"fit"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return err
	}
	if len(doc.Cells) == 0 || doc.Fit == nil {
		return fmt.Errorf("fig2 result has no cells or no fit")
	}
	for _, pin := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"s-pure-median", doc.Cells[0].MedS, 350.284, 0.0005},
		{"slope", doc.Fit.SlopeS, -369.785, 0.0005},
		{"r2", doc.Fit.R2, 0.9885, 0.00005},
	} {
		if math.Abs(pin.got-pin.want) > pin.tol {
			return fmt.Errorf("fig2 pin %s = %v, want %v", pin.name, pin.got, pin.want)
		}
	}
	fmt.Printf("  fig2 pins hold: s-pure-median %.3f  slope %.3f  r2 %.4f\n", doc.Cells[0].MedS, doc.Fit.SlopeS, doc.Fit.R2)
	return nil
}

// finish verifies every sealed spec directory; on the traced pass it
// also runs the same sweep directly through lab and artifact, which
// is what labd's own share of the round trip is measured against.
func (w *labdWorkload) finish(tr *tracer, m *metricSet) error {
	dirs, err := filepath.Glob(filepath.Join(w.store.Dir(), "*", "manifest.json"))
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		return fmt.Errorf("no sealed spec directory under %s", w.store.Dir())
	}
	for _, mf := range dirs {
		if err := artifact.VerifySweepDir(filepath.Dir(mf)); err != nil {
			return err
		}
	}
	if tr == nil {
		return nil
	}
	m.set("labd.events_per_job", float64(w.events))
	m.set("labd.result_bytes", float64(w.resultBytes))

	spec, err := labd.BuildPreset("fig2", w.options(0))
	if err != nil {
		return err
	}
	sw, err := lab.ParseCanonical(spec)
	if err != nil {
		return err
	}
	leg := func(name string, f func() error) (float64, error) {
		sp := tr.begin(name)
		if err := f(); err != nil {
			return 0, err
		}
		tr.end(sp)
		return sp.durMS(), nil
	}
	sweep := func(parallelism int) func() error {
		return func() error {
			s := sw
			s.Parallelism = parallelism
			_, err := s.Run()
			return err
		}
	}
	p1, err := leg("lab.sweep_p1", sweep(1))
	if err != nil {
		return err
	}
	pn, err := leg("lab.sweep_pn", sweep(0))
	if err != nil {
		return err
	}
	m.set("lab.sweep_p1_s", p1/1e3)
	m.set("lab.sweep_pn_s", pn/1e3)
	m.set("lab.sweep_speedup", p1/pn)

	// artifact.RunSweep made from outside, on a store of its own, so
	// Finish gets its own span: cold (every cell executes), then again
	// (every cell is a hit).
	direct, err := artifact.Open(filepath.Join(w.dir, "direct"))
	if err != nil {
		return err
	}
	stored := func(name string, wantExecuted int) (total, finish float64, err error) {
		total, err = leg(name, func() error {
			ss, err := direct.Sweep(sw)
			if err != nil {
				return err
			}
			s := sw
			s.Cache = ss
			if _, err := s.Run(); err != nil {
				return err
			}
			sp := tr.begin("artifact.finish")
			if err := ss.Finish(); err != nil {
				return err
			}
			tr.end(sp)
			finish = sp.durMS()
			if ss.Executed() != wantExecuted || ss.Hits() != w.total()-wantExecuted {
				return fmt.Errorf("%s: executed %d hits %d, want %d and %d",
					name, ss.Executed(), ss.Hits(), wantExecuted, w.total()-wantExecuted)
			}
			return nil
		})
		return total, finish, err
	}
	cold, finish, err := stored("artifact.sweep_cold", w.total())
	if err != nil {
		return err
	}
	hit, _, err := stored("artifact.sweep_hit", 0)
	if err != nil {
		return err
	}
	m.set("artifact.finish_ms", finish)
	m.set("artifact.store_ms_per_run", (cold-pn)/float64(w.total()))
	m.set("artifact.hit_sweep_ms", hit)
	m.set("labd.overhead_ms", spanP50(tr, "labd.cold")-cold)

	var recordBytes int64
	err = filepath.WalkDir(direct.Dir(), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		recordBytes += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("artifact.record_bytes_per_run", float64(recordBytes)/float64(w.total()))
	return nil
}

// spanP50 is the median duration of the named span over the timed
// ops, 0 when there is none.
func spanP50(tr *tracer, name string) float64 {
	var xs []float64
	for _, s := range tr.spans {
		if s.Op >= 0 && s.EndNS != 0 && s.Name == name {
			xs = append(xs, s.durMS())
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}
