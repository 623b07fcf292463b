package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxUploadBytes bounds worker request bodies, as the job server's
// maxSubmitBytes bounds a submission. The largest is a ResultUpload, a few
// KiB even with a panic stack in its error, so 1 MiB keeps a hostile client
// from streaming an unbounded body into the decoder.
const maxUploadBytes = 1 << 20

// Handler returns the coordinator's HTTP API. Mount it under a /fleet/
// prefix with http.StripPrefix (the job server does this in fleet mode).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /register", c.handleRegister)
	mux.HandleFunc("POST /lease", c.handleLease)
	mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /result", c.handleResult)
	mux.HandleFunc("GET /status", c.handleStatus)
	return mux
}

// DecodeBody decodes a JSON request body of at most limit bytes into v,
// refusing unknown fields and anything after the first JSON value. On
// failure it has already written the 400 or 413 JSON error response; the
// caller only returns. The job server's POST /jobs decodes through it too.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	body := http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return err
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return err
	}
	// A concatenated second document would otherwise be silently ignored.
	if _, err := dec.Token(); err != io.EOF {
		err := fmt.Errorf("unexpected data after JSON body")
		writeError(w, http.StatusBadRequest, "%v", err)
		return err
	}
	return nil
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := DecodeBody(w, r, maxUploadBytes, &req); err != nil {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "register: empty worker id")
		return
	}
	c.mu.Lock()
	c.workers[req.Worker] = time.Now()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, RegisterResponse{
		LeaseTTLSeconds:  c.opts.LeaseTTL.Seconds(),
		PollSeconds:      max(c.opts.LeaseTTL/10, 100*time.Millisecond).Seconds(),
		HoldSeconds:      c.leaseHold().Seconds(),
		HeartbeatSeconds: (c.opts.LeaseTTL / 3).Seconds(),
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := DecodeBody(w, r, maxUploadBytes, &req); err != nil {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "lease: empty worker id")
		return
	}
	wu := c.LeaseWait(r.Context(), req.Worker)
	if wu == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Unit: wu})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := DecodeBody(w, r, maxUploadBytes, &req); err != nil {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "heartbeat: empty worker id")
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Drop: c.Heartbeat(req.Worker, req.Fingerprints)})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var up ResultUpload
	if err := DecodeBody(w, r, maxUploadBytes, &up); err != nil {
		return
	}
	if up.Worker == "" || up.Fingerprint == "" {
		writeError(w, http.StatusBadRequest, "result: empty worker id or fingerprint")
		return
	}
	if up.Result == nil && up.Error == "" {
		writeError(w, http.StatusBadRequest, "result: neither result nor error present")
		return
	}
	c.Deliver(up)
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
