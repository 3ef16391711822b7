package labd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/lab"
)

// The control API, all JSON over stdlib net/http:
//
//	GET  /v1/healthz             liveness
//	GET  /v1/status              daemon status (workers, queues, states)
//	GET  /v1/presets             the experiment registry as named presets
//	POST /v1/jobs                submit a spec (canonical bytes or preset)
//	GET  /v1/jobs                all jobs, submission order
//	GET  /v1/jobs/{id}           one job's status
//	GET  /v1/jobs/{id}/spec      the job's canonical spec bytes
//	GET  /v1/jobs/{id}/result    encoded result (?format=table|csv|json|markdown)
//	GET  /v1/jobs/{id}/manifest  the sealed manifest from the store
//	GET  /v1/jobs/{id}/events    SSE stream of the job's event log (?from=seq)
//
// {id} is the spec hash or any unique prefix of at least 8 digits.

// SubmitRequest is the POST /v1/jobs body. Exactly one of Spec and
// Preset must be set.
type SubmitRequest struct {
	// Client identifies the submitting tenant for fair scheduling
	// (empty maps to "anonymous").
	Client string `json:"client,omitempty"`
	// Name labels the sweep in encoder output and the manifest; for a
	// preset submission it defaults to the preset name. Presentation
	// only — never part of the job identity.
	Name string `json:"name,omitempty"`
	// Spec is a canonical sweep spec (lab.Sweep.Canonical bytes),
	// submitted verbatim.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Preset names a registry experiment to build server-side.
	Preset string `json:"preset,omitempty"`
	// Options override the preset's defaults (ignored with Spec).
	Options *PresetOptions `json:"options,omitempty"`
}

// SubmitResponse is the POST /v1/jobs reply.
type SubmitResponse struct {
	// Job is the accepted (or coalesced-onto) job's status.
	Job JobStatus `json:"job"`
	// Coalesced reports that an equivalent job already existed: the
	// submission joined it instead of executing anything new.
	Coalesced bool `json:"coalesced"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("GET /v1/presets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]Preset{"presets": Presets()})
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]JobStatus{"jobs": s.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *Job) {
		writeJSON(w, http.StatusOK, j.Status())
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/spec", s.withJob(func(w http.ResponseWriter, r *http.Request, j *Job) {
		w.Header().Set("Content-Type", "application/json")
		//lint:errcheck a failed client write has no recovery beyond the log the caller keeps
		w.Write(j.Spec())
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.withJob(s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/manifest", s.withJob(s.handleManifest))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.withJob(s.handleEvents))
	return mux
}

// maxSubmitBytes bounds a submit body. A canonical spec is a few
// kilobytes, so a megabyte admits any real one while a hostile body
// cannot grow the daemon's heap without limit.
const maxSubmitBytes = 1 << 20

// handleSubmit accepts a spec or preset submission: one JSON object,
// with nothing after it but white space.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	err := dec.Decode(&req)
	if err == nil {
		switch _, tail := dec.Token(); tail {
		case io.EOF:
		case nil:
			err = errors.New("data after the request")
		default:
			err = tail
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("labd: bad submit body: %w", err))
		return
	}
	var spec []byte
	name := req.Name
	switch {
	case req.Preset != "" && len(req.Spec) > 0:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("labd: submit either spec or preset, not both"))
		return
	case req.Preset != "":
		var opt PresetOptions
		if req.Options != nil {
			opt = *req.Options
		}
		var err error
		if spec, err = BuildPreset(req.Preset, opt); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if name == "" {
			name = req.Preset
		}
	case len(req.Spec) > 0:
		spec = req.Spec
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("labd: submit needs a spec or a preset"))
		return
	}
	j, coalesced, err := s.Submit(req.Client, name, spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusCreated
	if coalesced {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{Job: j.Status(), Coalesced: coalesced})
}

// handleResult encodes a done job's sweep result in the requested
// format — through the same lab encoders the CLI uses, so the bytes
// match `convergence` stdout for the same spec.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, j *Job) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "table"
	}
	f, err := lab.ParseFormat(format)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res := j.Result()
	if res == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("labd: job %.12s is %s, result not available", j.ID(), j.State()))
		return
	}
	var buf bytes.Buffer
	if err := lab.Write(&buf, f, res); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if f == lab.FormatJSON {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	//lint:errcheck a failed client write has no recovery beyond the log the caller keeps
	w.Write(buf.Bytes())
}

// handleManifest serves the job's sealed manifest bytes from the
// store directory.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request, j *Job) {
	data, err := os.ReadFile(filepath.Join(s.store.Dir(), j.ID(), "manifest.json"))
	if err != nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("labd: job %.12s has no sealed manifest yet", j.ID()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:errcheck a failed client write has no recovery beyond the log the caller keeps
	w.Write(data)
}

// handleEvents streams the job's event log as Server-Sent Events:
// one `event:`/`id:`/`data:` block per log entry, replayed from
// ?from=<seq> (default 0, the full history) and then followed live
// until the job reaches a terminal state. Exactly-once per
// subscriber: the log is append-only and Seq-numbered, so a client
// that reconnects with from=<last seen seq> resumes without gaps or
// duplicates.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("labd: response writer cannot stream"))
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("labd: bad from %q", v))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	//lint:errcheck a dropped subscriber ends its own stream; Subscribe returns on the write error
	j.Subscribe(r.Context().Done(), from, func(ev Event) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	})
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:errcheck a failed client write has no recovery beyond the log the caller keeps
	enc.Encode(v)
}

// writeErr writes the uniform error body.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// withJob resolves the {id} path value to a job or 404s.
func (s *Server) withJob(fn func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		fn(w, r, j)
	}
}
