package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
)

// Session HTTP handlers. Status codes carry the session lifecycle:
//
//	201  session opened (body: SessionStatus with the base result)
//	200  delta applied / status read
//	409  another delta for the same session is still in flight (retry)
//	410  session gone — never opened here, evicted, closed, or lost to a
//	     daemon restart; the client must reopen and replay its base state
//	503  service draining or closed
//	400  everything else (malformed spec, malformed delta, range errors)
//
// 410 rather than 404 is deliberate: sessions are memory-resident and a
// restarted daemon must fail closed instead of guessing, so "gone" is a
// permanent verdict for that id and clients should not retry it.

func writeSessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSessionGone):
		writeError(w, http.StatusGone, err.Error())
	case errors.Is(err, ErrSessionBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Service) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxJobBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading session spec: "+err.Error())
		return
	}
	spec, _, err := DecodeJobSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding session spec: "+err.Error())
		return
	}
	st, err := s.OpenSession(r.Context(), spec)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	if r.URL.Query().Get("result") == "0" {
		st.Result = nil
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Service) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	includeResult := r.URL.Query().Get("result") == "1"
	st, err := s.GetSession(r.PathValue("id"), includeResult)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSessionDelta accepts either wire form: the versioned binary IRDB
// frame (Content-Type: application/octet-stream — checksummed, compact,
// what irredload streams) or a JSON Delta for hand-driven use.
func (s *Service) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDeltaBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading delta body: "+err.Error())
		return
	}
	var d *Delta
	if strings.Contains(r.Header.Get("Content-Type"), "octet-stream") {
		d, err = DecodeDelta(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		d = new(Delta)
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(d); err != nil {
			writeError(w, http.StatusBadRequest, "decoding delta: "+err.Error())
			return
		}
	}
	includeResult := r.URL.Query().Get("result") != "0"
	st, err := s.ApplyDelta(r.Context(), r.PathValue("id"), d, includeResult)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.CloseSession(id); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}{ID: id, State: "closed"})
}
