package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"

	fastod "repro"
	"repro/internal/faultinject"
)

// handleHealthz is the readiness probe: the process is up and the mux routes.
// The body doubles as the operator's dashboard: report-cache accounting,
// goroutine/heap gauges and the contained-failure counters ride along, and
// Status flips to "degraded" while the soft-memory admission check is
// shedding load — all observable without a metrics stack.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthResponse())
}

// healthResponse assembles the /healthz body from the server's gauges.
func (s *Server) healthResponse() HealthResponse {
	resp := HealthResponse{Status: "ok", ReportCache: s.ReportCacheStats(), Runtime: RuntimeInfo{
		Goroutines:     runtime.NumGoroutine(),
		HeapBytes:      s.mem.heapBytes(),
		HeapLimitBytes: s.maxHeapBytes,
		InternalErrors: s.internalErrors.Load(),
		ShedRequests:   s.shedRequests.Load(),
	}}
	if s.overSoftMemory() {
		resp.Status = "degraded"
	}
	return resp
}

// newRequestID mints the opaque ID that ties a 500 response to the log line
// carrying its stack. Collisions are harmless (the ID only scopes a log
// search), so 8 random bytes suffice.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// serveRunError writes the error response of a failed discovery run. Client
// errors (ErrInvalidRequest) pass through as 400s. Server-side failures —
// above all contained worker panics (fastod.ErrInternal) — become structured
// 500 JSON carrying the request ID, while the captured stack goes to the
// server log only (operators need it; clients must not see it).
func (s *Server) serveRunError(w http.ResponseWriter, name, reqID string, err error) {
	status := statusOf(err)
	if status != http.StatusInternalServerError {
		writeError(w, status, err)
		return
	}
	s.logRunFailure(name, reqID, err)
	writeJSON(w, status, errorBody{Error: err.Error(), RequestID: reqID})
}

// logRunFailure records a contained run failure with its stack (when the
// typed error carries one) under the request ID echoed to the client.
func (s *Server) logRunFailure(name, reqID string, err error) {
	s.internalErrors.Add(1)
	var ie *fastod.InternalError
	if errors.As(err, &ie) && len(ie.Stack) > 0 {
		node := ie.Node
		if node == "" {
			node = "(none)"
		}
		s.logger.Printf("discover %s: request %s: contained worker panic, node %s: %v\n%s", name, reqID, node, err, ie.Stack)
		return
	}
	s.logger.Printf("discover %s: request %s: run failed: %v", name, reqID, err)
}

// handleUpload creates a named dataset from a CSV request body:
// POST /v1/datasets?name=N. The dataset gets a shared partition cache so all
// subsequent discovery requests against it reuse partitions.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing required query parameter %q (the dataset name)", "name"))
		return
	}
	// Refuse doomed uploads before parsing a potentially huge CSV body; the
	// authoritative (race-free) check is AddDataset's, under its lock.
	if _, exists := s.dataset(name); exists {
		writeError(w, http.StatusConflict, fmt.Errorf("server: %w: %q", ErrDatasetExists, name))
		return
	}
	if s.atCapacity() {
		writeError(w, http.StatusInsufficientStorage, fmt.Errorf("server: %w (%d)", ErrDatasetLimit, s.maxDatasets))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxUploadBytes)
	ds, err := fastod.LoadCSV(name, body)
	if err != nil {
		// Oversized and malformed uploads are both the client's doing.
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	if err := s.AddDataset(name, ds); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrDatasetExists):
			status = http.StatusConflict
		case errors.Is(err, ErrDatasetLimit):
			status = http.StatusInsufficientStorage
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo(name, ds))
}

// handleListDatasets lists the resident datasets: GET /v1/datasets.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DatasetList{Datasets: s.datasetInfos()})
}

// handleGetDataset describes one dataset: GET /v1/datasets/{name}.
func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.dataset(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no dataset %q (upload one with POST /v1/datasets?name=%s)", name, name))
		return
	}
	writeJSON(w, http.StatusOK, datasetInfo(name, ds))
}

// handleDiscover runs one discovery request and returns the report as JSON:
// POST /v1/datasets/{name}/discover. Interrupted runs (budget or deadline
// exhausted) are successes — HTTP 200 with "interrupted": true and the
// partial report — because the partial-result contract guarantees every
// reported dependency is individually valid. Invalid requests are 400s via
// fastod.ErrInvalidRequest; algorithm failures are 500s.
// A cache hit skips the run AND the run semaphore: replaying a stored reply
// is a map lookup plus JSON encoding, so it must never queue behind actual
// discovery work.
func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	ds, req, ok := s.prepareDiscover(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	key := cacheKey(name, ds.Version(), req.Fingerprint())
	if resp, hit := s.cachedReply(key, req); hit {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	ctx, end, ok := s.beginRun(w, r, req)
	if !ok {
		return
	}
	// The deferred release (not a release on the success path) is
	// load-bearing for fault containment: even if the run or the response
	// encoding panics out of this handler, the semaphore slot comes back.
	defer end()

	rep, err := ds.Run(ctx, req)
	if err != nil {
		s.serveRunError(w, name, newRequestID(), err)
		return
	}
	resp := discoverResponse(name, req, rep, ds.ColumnNames())
	s.cacheReply(key, resp) // refuses interrupted partials
	writeJSON(w, http.StatusOK, resp)
}

// handleDiscoverStream is handleDiscover over Server-Sent Events:
// POST /v1/datasets/{name}/discover/stream emits one "progress" event per
// completed lattice level (and per condition slice), then a final "report"
// event with the same JSON body handleDiscover returns. Request validation
// failures still surface as plain HTTP 400s — the stream only starts once
// the run does. Run failures after that arrive as a terminal "error" event,
// since the 200 header is already on the wire.
func (s *Server) handleDiscoverStream(w http.ResponseWriter, r *http.Request) {
	ds, req, ok := s.prepareDiscover(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, errors.New("response writer does not support streaming"))
		return
	}
	name := r.PathValue("name")
	startStream := func() {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
	}
	// A cache hit replays the final "report" event immediately — no progress
	// events (no run is happening to report on), no run-semaphore wait.
	key := cacheKey(name, ds.Version(), req.Fingerprint())
	if resp, hit := s.cachedReply(key, req); hit {
		startStream()
		writeSSE(w, "report", resp)
		flusher.Flush()
		return
	}
	ctx, end, ok := s.beginRun(w, r, req)
	if !ok {
		return
	}
	// Deferred for the same fault-containment reason as handleDiscover: a
	// panic mid-stream must never leak the semaphore slot.
	defer end()
	startStream()

	// Progress callbacks are serialized by the library (conditional slice
	// passes run in parallel but emit under one mutex), so writes to the
	// stream never interleave even when events originate on worker goroutines.
	onProgress := func(ev fastod.ProgressEvent) {
		writeSSE(w, "progress", progressEvent(ev))
		flusher.Flush()
	}
	rep, err := ds.RunWithProgress(ctx, req, onProgress)
	if err != nil {
		reqID := newRequestID()
		if statusOf(err) == http.StatusInternalServerError {
			s.logRunFailure(name, reqID, err)
		}
		writeSSE(w, "error", errorBody{Error: err.Error(), RequestID: reqID})
		flusher.Flush()
		return
	}
	resp := discoverResponse(name, req, rep, ds.ColumnNames())
	s.cacheReply(key, resp) // refuses interrupted partials
	writeSSE(w, "report", resp)
	flusher.Flush()
}

// prepareDiscover resolves the dataset, decodes the JSON request, applies the
// server-side budget cap and validates — everything that can still produce a
// clean client error before any discovery work starts. On failure it writes
// the error response and returns ok=false.
func (s *Server) prepareDiscover(w http.ResponseWriter, r *http.Request) (*fastod.Dataset, fastod.Request, bool) {
	name := r.PathValue("name")
	ds, ok := s.dataset(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no dataset %q (upload one with POST /v1/datasets?name=%s)", name, name))
		return nil, fastod.Request{}, false
	}
	// The request body is bounded like the upload path: a JSON request has no
	// business being megabytes, and an unbounded decoder would buffer whatever
	// a client streams at it. MaxBytesReader also hard-closes the connection
	// on overrun, so an abusive client cannot keep feeding.
	body := http.MaxBytesReader(w, r.Body, s.maxRequestBytes)
	var q DiscoverRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&q)
	switch {
	case errors.Is(err, io.EOF):
		// An empty body is a default FASTOD run — and trivially has nothing
		// trailing it.
	case err != nil:
		// Anything undecodable is the client's doing: 400, or 413 when the
		// decoder hit the body bound.
		writeError(w, requestBodyStatus(err), fmt.Errorf("decoding request body: %w", err))
		return nil, fastod.Request{}, false
	default:
		// Exactly one JSON value is allowed. Without this check a body like
		// `{}{"workers":-1}` would silently run a default discovery and drop
		// everything after the first object — a malformed request accepted
		// and half-ignored instead of rejected.
		var trailing json.RawMessage
		if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
			if err == nil {
				err = errors.New("request body must be a single JSON object")
			}
			writeError(w, requestBodyStatus(err), fmt.Errorf("trailing data after the JSON request object: %w", err))
			return nil, fastod.Request{}, false
		}
	}
	req, err := q.toRequest()
	if err != nil {
		// Unparseable order-spec enums are the client's doing, like any other
		// malformed field.
		writeError(w, http.StatusBadRequest, err)
		return nil, fastod.Request{}, false
	}
	req.Budget = capBudget(req.Budget, s.maxBudget)
	// The dataset-aware variant, so even failures Validate alone cannot see
	// (condition attrs beyond the dataset's width) become clean 400s here —
	// before the SSE handler commits its 200 header to the wire.
	if err := ds.ValidateRequest(req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, fastod.Request{}, false
	}
	return ds, req, true
}

// runContext derives the run's context: the request context bounded by the
// effective budget timeout, so a client that disconnects and a deadline that
// fires both interrupt the run the same cooperative way.
func (s *Server) runContext(parent context.Context, req fastod.Request) (context.Context, context.CancelFunc) {
	if req.Budget.Timeout > 0 {
		return context.WithTimeout(parent, req.Budget.Timeout)
	}
	return context.WithCancel(parent)
}

// beginRun derives the run context and takes one slot of the global run
// semaphore. The deadline starts before the semaphore wait, so it bounds
// queue time plus run time: a saturated server cannot hold a 50ms request
// hostage for another run's 30s budget. On failure the 503 is already
// written; on success the caller must defer end().
func (s *Server) beginRun(w http.ResponseWriter, r *http.Request, req fastod.Request) (ctx context.Context, end func(), ok bool) {
	// Soft-memory admission: when the live heap is already over the limit,
	// starting another run only moves the process closer to an OOM kill that
	// would take every in-flight request with it. Shedding with Retry-After
	// converts that cliff into per-request backpressure; runs already holding
	// a slot finish normally.
	if s.overSoftMemory() {
		s.shedRequests.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("server heap is over its soft memory limit (%d bytes); retry later", s.maxHeapBytes))
		return nil, nil, false
	}
	ctx, cancel := s.runContext(r.Context(), req)
	release := s.acquire(ctx.Done())
	if release == nil {
		cancel()
		writeError(w, http.StatusServiceUnavailable, errors.New("deadline expired or request cancelled while waiting for a run slot"))
		return nil, nil, false
	}
	return ctx, func() { release(); cancel() }, true
}

// requestBodyStatus maps a request-body decode failure onto its HTTP status:
// 413 when the body bound was hit (mirroring the upload path), 400 otherwise.
func requestBodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusOf maps a Run error onto an HTTP status: typed validation failures
// are the client's fault, everything else is ours.
func statusOf(err error) int {
	if errors.Is(err, fastod.ErrInvalidRequest) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = encodeJSON(w, body) // the status line is gone; nothing left to signal
}

// encodeJSON writes body as one line of JSON and a newline, leaving <, > and
// & unescaped, so a dependency prints "->" as the CLI prints it.
func encodeJSON(w io.Writer, body any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeSSE writes one Server-Sent Event with a JSON data payload, encoded as
// writeJSON encodes a body: a report event's data is the bytes /discover
// returns, less the final newline. Encoded JSON holds no other newline, so
// the payload always fits one data: line.
func writeSSE(w io.Writer, event string, body any) {
	if err := faultinject.Fire(faultinject.SSEWrite); err != nil {
		// An injected write failure drops the frame: SSE delivery is
		// best-effort, and the client's retry/reconnect logic owns recovery.
		return
	}
	var data bytes.Buffer
	if err := encodeJSON(&data, body); err != nil { // a failed Encode writes nothing
		_ = encodeJSON(&data, errorBody{Error: err.Error()})
		event = "error"
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, bytes.TrimSuffix(data.Bytes(), []byte("\n")))
}
