package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"irred/internal/obs"
)

// MaxJobBody bounds a job or session spec body (raw indirection arrays can
// be large, but not unbounded), at every node that reads one.
const MaxJobBody = 256 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a job (202; ?wait=1 blocks, 200;
//	                            ?result=0 omits the result vector)
//	GET    /v1/jobs/{id}        job status + result (?result=0 to omit)
//	POST   /v1/jobs/{id}/cancel request cancellation
//	DELETE /v1/jobs/{id}        same as cancel
//	POST   /v1/session          open a streaming session (201 + base result)
//	GET    /v1/session/{id}     session status (?result=1 attaches the vector)
//	POST   /v1/session/{id}/delta  apply a sparse indirection delta (200;
//	                            binary IRDB frame for application/octet-stream
//	                            bodies, JSON otherwise; 409 while another
//	                            delta is in flight, 410 once the session is
//	                            gone)
//	DELETE /v1/session/{id}     close a session
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 while draining or closed)
//	GET    /metrics             expvar-style JSON counters
//	GET    /debug/trace         phase-level span dump + aggregate tables
//
// A full admission queue answers 429 with Retry-After, the explicit
// load-shedding contract.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/session", s.handleSessionOpen)
	mux.HandleFunc("GET /v1/session/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/session/{id}/delta", s.handleSessionDelta)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	return mux
}

// TraceHandler returns just the /debug/trace endpoint, so cmd/irredd can
// also mount it on a separate debug listener next to pprof and expvar.
func (s *Service) TraceHandler() http.Handler {
	return http.HandlerFunc(s.handleTrace)
}

// TraceDump is the /debug/trace payload: the retained span window plus the
// aggregate tables derived from it. ByPhase is the per-phase table the
// paper's overlap argument is read from: compute vs copy vs wait, phase by
// phase.
type TraceDump struct {
	Enabled       bool       `json:"enabled"`
	TotalRecorded uint64     `json:"total_recorded"`
	Dropped       uint64     `json:"dropped"` // overwritten by ring wrap
	Aggregate     []obs.Agg  `json:"aggregate"`
	ByPhase       []obs.Agg  `json:"by_phase"`
	Spans         []obs.Span `json:"spans,omitempty"`
}

// handleTrace serves the span dump. Query parameters:
//
//	spans=0        omit the raw span list (aggregates only)
//	n=<max>        cap the raw span list to the newest n
//	format=table   render the aggregate tables as text instead of JSON
//	reset=1        clear the ring after snapshotting
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		writeJSON(w, http.StatusOK, TraceDump{Enabled: false})
		return
	}
	spans, total := s.trace.Snapshot()
	if r.URL.Query().Get("reset") == "1" {
		s.trace.Reset()
	}
	dump := TraceDump{
		Enabled:       true,
		TotalRecorded: total,
		Dropped:       total - uint64(len(spans)),
		Aggregate:     obs.Aggregate(spans, false),
		ByPhase:       obs.Aggregate(spans, true),
		Spans:         spans,
	}
	if r.URL.Query().Get("spans") == "0" {
		dump.Spans = nil
	} else if v := r.URL.Query().Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < len(dump.Spans) {
			dump.Spans = dump.Spans[len(dump.Spans)-n:]
		}
	}
	if r.URL.Query().Get("format") == "table" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("== aggregate ==\n" + obs.Table(dump.Aggregate) +
			"\n== by phase ==\n" + obs.Table(dump.ByPhase)))
		return
	}
	writeJSON(w, http.StatusOK, dump)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec // its UnmarshalJSON rejects unknown fields itself
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxJobBody)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: "+err.Error())
		return
	}
	s.ServeJob(w, r, spec)
}

// ServeJob answers a job submission whose spec the caller has decoded: 202
// with the queued status, or with ?wait=1 the finished one (?result=0 omits
// the vector). A full queue answers 429 and a closing service 503, both with
// Retry-After; any other refusal is 400. POST /v1/jobs is its decode
// followed by ServeJob, and a cluster node calls it with the spec it parsed.
func (s *Service) ServeJob(w http.ResponseWriter, r *http.Request, spec JobSpec) {
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed):
		// A closing (draining) node is a transient condition in a fleet:
		// tell the client when to come back, exactly like the 429 path.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		includeResult := r.URL.Query().Get("result") != "0"
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, j.Status(includeResult))
		case <-r.Context().Done():
			// The caller went away; the job keeps running and remains
			// queryable by id.
			writeJSON(w, http.StatusAccepted, j.Status(false))
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status(false))
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	includeResult := r.URL.Query().Get("result") != "0"
	writeJSON(w, http.StatusOK, j.Status(includeResult))
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status(false))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}
