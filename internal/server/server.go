// Package server exposes the unified Run discovery API over HTTP with JSON,
// turning the library into a deployable discovery service in the style of the
// Metanome-class platforms the paper's experimental setup assumes: datasets
// are uploaded once as CSV, then profiled repeatedly — by any of the six
// algorithms — through budgeted, cancellable discovery requests.
//
// Endpoints:
//
//	POST /v1/datasets?name=N           upload a CSV body as dataset N
//	GET  /v1/datasets                  list loaded datasets
//	GET  /v1/datasets/{name}           describe one dataset
//	POST /v1/datasets/{name}/discover  run discovery, JSON request/response
//	POST /v1/datasets/{name}/discover/stream
//	                                   same, but stream per-level progress
//	                                   events as SSE before the final report
//	GET  /healthz                      readiness probe
//
// Every uploaded dataset gets a shared partition cache
// (fastod.Dataset.EnablePartitionCache), so repeated discovery requests
// against the same dataset reuse stripped partitions across algorithms — the
// access pattern a profiling service spends most of its time on. One level
// above it, a bounded report cache keeps the reply of every completed run,
// rendered once, under (dataset name, dataset version, canonical request
// fingerprint): a repeated question skips the run — and the run semaphore —
// entirely and is answered with the stored reply, its workers set to the
// repeat's and "cached": true. The cache enforces two correctness rules
// itself:
//
//   - An interrupted (partial) reply is never cached. Where a run stops on
//     budget exhaustion depends on machine load and worker scheduling, so a
//     partial reply is not a function of its key and must be recomputed
//     every time; caching it would also let a budget-starved answer shadow
//     the full one.
//   - A key never outlives its data. A dataset never changes after upload,
//     and every dataset and every Project/HeadRows view gets a
//     process-unique version stamp (fastod.Dataset.Version) that is part of
//     the key.
//
// Replies larger than the whole bound are refused rather than evicting
// everything else; refusals are counted as rejects.
//
// Resource discipline: a global semaphore bounds how many discovery runs
// execute at once, and a server-side budget cap bounds each run's wall-clock
// time and visited lattice nodes, so no request — including one that asks for
// no budget at all — can run away. A request that exhausts its budget is not
// an error: it yields HTTP 200 with "interrupted": true and the partial
// report (see the fastod.Report partial-result contract). Invalid requests
// are rejected up front via fastod.ErrInvalidRequest and map to HTTP 400;
// only genuine algorithm/input failures map to HTTP 500.
package server

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	fastod "repro"
	"repro/internal/lru"
)

// Typed AddDataset failures, so the upload handler can map each to its HTTP
// status with errors.Is instead of guessing from server state.
var (
	// ErrDatasetExists reports a name collision with a resident dataset.
	ErrDatasetExists = errors.New("dataset already exists")
	// ErrDatasetLimit reports that the server is at its dataset capacity.
	ErrDatasetLimit = errors.New("dataset limit reached")
)

// Config tunes a Server. The zero value is usable: DefaultBudget caps every
// run, DefaultMaxConcurrent bounds parallel runs and DefaultMaxUploadBytes
// bounds CSV uploads.
type Config struct {
	// MaxConcurrent bounds how many discovery runs may execute at once
	// (<= 0 selects DefaultMaxConcurrent). Further discover requests wait
	// until a slot frees or their own context/deadline fires.
	MaxConcurrent int
	// MaxBudget caps every run's budget knob-by-knob: a request may ask for
	// less than the cap, never for more, and an absent (zero) knob — which
	// the library reads as "unbounded" — is replaced by the cap. Zero knobs
	// here select fastod.DefaultBudget()'s values.
	MaxBudget fastod.Budget
	// MaxUploadBytes bounds the size of one CSV upload body
	// (<= 0 selects DefaultMaxUploadBytes).
	MaxUploadBytes int64
	// MaxDatasets bounds how many datasets may be resident at once
	// (<= 0 selects DefaultMaxDatasets). Uploads beyond it are refused —
	// eviction is a deliberate non-feature for now (see ROADMAP).
	MaxDatasets int
	// MaxRequestBytes bounds the size of one JSON discover request body
	// (<= 0 selects DefaultMaxRequestBytes). Oversized bodies are refused
	// with 413, mirroring the CSV upload path.
	MaxRequestBytes int64
	// ReportCacheBytes bounds the report cache — the replies of completed
	// discovery runs, kept by (dataset name, dataset version, canonical
	// request), so a repeated question costs a map lookup instead of a run —
	// in bytes of cached replies (<= 0 selects DefaultReportCacheBytes).
	// Interrupted replies are never cached.
	ReportCacheBytes int
	// MaxHeapBytes is the soft-memory admission limit: when the live heap
	// exceeds it, new discover requests are shed with 503 + Retry-After
	// before they can allocate the process toward an OOM kill, and /healthz
	// reports "degraded". Requests already running finish normally (their
	// memory is already committed; killing them would waste it). Zero
	// disables the check — the limit depends on the deployment's memory
	// envelope, so there is no meaningful universal default.
	MaxHeapBytes uint64
	// ErrorLog receives contained run failures (one line plus the captured
	// stack, tagged with the per-request ID echoed to the client). Nil
	// selects log.Default().
	ErrorLog *log.Logger
}

// Defaults for Config's zero values.
const (
	DefaultMaxConcurrent    = 4
	DefaultMaxUploadBytes   = 64 << 20
	DefaultMaxDatasets      = 64
	DefaultMaxRequestBytes  = 1 << 20
	DefaultReportCacheBytes = 32 << 20
)

// Server is the HTTP discovery service: a named collection of uploaded
// datasets plus the resource limits every discovery run is subject to.
// All methods are safe for concurrent use.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*fastod.Dataset

	sem             chan struct{}
	maxBudget       fastod.Budget
	maxUploadBytes  int64
	maxDatasets     int
	maxRequestBytes int64
	maxHeapBytes    uint64
	reports         *lru.Cache[string, *DiscoverResponse]
	logger          *log.Logger

	// reportRejects counts replies the report cache refused: interrupted
	// ones and ones larger than its whole bound.
	reportRejects atomic.Int64

	// internalErrors counts contained run failures (recovered panics mapped
	// to 500s); shedRequests counts discover requests refused by the
	// soft-memory admission check. Both surface on /healthz.
	internalErrors atomic.Int64
	shedRequests   atomic.Int64
	mem            memGauge
}

// memGauge reads the live heap size through runtime/metrics, caching the
// sample briefly so the admission check on every discover request costs an
// atomic-scale read instead of a metrics sweep.
type memGauge struct {
	mu      sync.Mutex
	readAt  time.Time
	heap    uint64
	samples []metrics.Sample
}

// memGaugeTTL bounds how stale an admission decision's heap reading can be.
const memGaugeTTL = 250 * time.Millisecond

func (g *memGauge) heapBytes() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.readAt.IsZero() && time.Since(g.readAt) < memGaugeTTL {
		return g.heap
	}
	if g.samples == nil {
		g.samples = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	}
	metrics.Read(g.samples)
	if g.samples[0].Value.Kind() == metrics.KindUint64 {
		g.heap = g.samples[0].Value.Uint64()
	}
	g.readAt = time.Now()
	return g.heap
}

// Normalized returns the config with zero values replaced by the defaults:
// the limits a Server built from it actually enforces. Front ends log these,
// not the raw flag values.
func (c Config) Normalized() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = DefaultMaxDatasets
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if c.ReportCacheBytes <= 0 {
		c.ReportCacheBytes = DefaultReportCacheBytes
	}
	def := fastod.DefaultBudget()
	if c.MaxBudget.Timeout <= 0 {
		c.MaxBudget.Timeout = def.Timeout
	}
	if c.MaxBudget.MaxNodes <= 0 {
		c.MaxBudget.MaxNodes = def.MaxNodes
	}
	return c
}

// New builds a Server from the config (zero values select the defaults).
func New(cfg Config) *Server {
	cfg = cfg.Normalized()
	logger := cfg.ErrorLog
	if logger == nil {
		logger = log.Default()
	}
	return &Server{
		datasets:        make(map[string]*fastod.Dataset),
		sem:             make(chan struct{}, cfg.MaxConcurrent),
		maxBudget:       cfg.MaxBudget,
		maxUploadBytes:  cfg.MaxUploadBytes,
		maxDatasets:     cfg.MaxDatasets,
		maxRequestBytes: cfg.MaxRequestBytes,
		maxHeapBytes:    cfg.MaxHeapBytes,
		reports:         lru.New[string, *DiscoverResponse](cfg.ReportCacheBytes),
		logger:          logger,
	}
}

// overSoftMemory reports whether the soft-memory admission limit is exceeded
// (always false when the limit is disabled).
func (s *Server) overSoftMemory() bool {
	return s.maxHeapBytes > 0 && s.mem.heapBytes() > s.maxHeapBytes
}

// Handler returns the service's HTTP handler (an http.ServeMux using
// method+path patterns); mount it on any http.Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/datasets", s.handleUpload)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	mux.HandleFunc("POST /v1/datasets/{name}/discover", s.handleDiscover)
	mux.HandleFunc("POST /v1/datasets/{name}/discover/stream", s.handleDiscoverStream)
	return mux
}

// AddDataset registers an already-built dataset under the given name (used
// by odserve's -preload and by tests) and attaches the shared partition
// cache exactly like an upload would. It fails if the name is taken or the
// dataset limit is reached.
func (s *Server) AddDataset(name string, ds *fastod.Dataset) error {
	if name == "" {
		return fmt.Errorf("server: empty dataset name")
	}
	if ds == nil {
		return fmt.Errorf("server: nil dataset %q", name)
	}
	ds.EnablePartitionCache(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; ok {
		return fmt.Errorf("server: %w: %q", ErrDatasetExists, name)
	}
	if len(s.datasets) >= s.maxDatasets {
		return fmt.Errorf("server: %w (%d)", ErrDatasetLimit, s.maxDatasets)
	}
	s.datasets[name] = ds
	return nil
}

// atCapacity reports whether the dataset limit is reached. Advisory only —
// AddDataset re-checks under its write lock.
func (s *Server) atCapacity() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.datasets) >= s.maxDatasets
}

// dataset looks a dataset up by name.
func (s *Server) dataset(name string) (*fastod.Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.datasets[name]
	return ds, ok
}

// datasetInfos snapshots every resident dataset's description under one
// read lock, sorted by name.
func (s *Server) datasetInfos() []DatasetInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	infos := make([]DatasetInfo, 0, len(s.datasets))
	for name, ds := range s.datasets {
		infos = append(infos, datasetInfo(name, ds))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// acquire takes one slot of the global run semaphore, waiting until either a
// slot frees or done fires; the returned release func is nil in the latter
// case. Waiting (rather than failing fast) keeps bursty clients simple: the
// per-request deadline still bounds the total wait+run time.
func (s *Server) acquire(done <-chan struct{}) (release func()) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }
	case <-done:
		return nil
	}
}

// cacheKey assembles the report-cache key of one discover request from its
// dataset's name and version and its fastod.Request.Fingerprint. Every
// request is cacheable: a dataset never changes after construction, so a
// run's output is fully described by (dataset, version, request). The
// version separator cannot occur in a fingerprint and versions are
// process-unique, so distinct coordinates never collide, whatever the
// dataset names.
func cacheKey(name string, version uint64, fingerprint string) string {
	return fmt.Sprintf("%s@%d|%s", name, version, fingerprint)
}

// cachedReply returns the reply cached under key as the reply to req: a copy
// with req's effective workers and Cached set.
func (s *Server) cachedReply(key string, req fastod.Request) (*DiscoverResponse, bool) {
	cached, ok := s.reports.Get(key)
	if !ok {
		return nil, false
	}
	resp := *cached
	resp.Workers = req.EffectiveWorkers()
	resp.Cached = true
	return &resp, true
}

// cacheReply offers a run's reply to the report cache, which from then on
// shares it: the reply must not change afterwards. Interrupted replies and
// replies larger than the whole bound are refused and counted as rejects.
// Storing under a resident key keeps the resident reply: complete replies
// for one key are interchangeable, so the first one in wins.
func (s *Server) cacheReply(key string, resp *DiscoverResponse) {
	if !resp.Interrupted {
		if _, ok := s.reports.Add(key, resp, replyCost(key, resp), 0); ok {
			return
		}
	}
	s.reportRejects.Add(1)
}

// replyCost is the bytes a cached reply holds: its key, the fixed sizes of
// the reply, its counts and its dependency array, and the bytes of every
// string and error rate the reply points at.
func replyCost(key string, resp *DiscoverResponse) int {
	cost := len(key) + int(unsafe.Sizeof(*resp)) + len(resp.Dataset) + len(resp.Algorithm) +
		cap(resp.Dependencies)*int(unsafe.Sizeof(Dependency{}))
	if resp.Counts != nil {
		cost += int(unsafe.Sizeof(*resp.Counts))
	}
	for _, d := range resp.Dependencies {
		cost += len(d.OD) + len(d.Condition)
		if d.Error != nil {
			cost += int(unsafe.Sizeof(*d.Error))
		}
	}
	return cost
}

// CacheStats is the report cache's accounting, as /healthz reports it under
// "report_cache": the lru core's counters, with Cost in bytes of cached
// replies, plus Rejects, the replies refused (interrupted, or larger than
// the whole bound).
type CacheStats struct {
	lru.Stats
	Rejects int `json:"rejects"`
}

// ReportCacheStats returns a snapshot of the report cache's accounting (the
// healthz payload; exported for tests and operators embedding the server).
func (s *Server) ReportCacheStats() CacheStats {
	return CacheStats{Stats: s.reports.Stats(), Rejects: int(s.reportRejects.Load())}
}

// capBudget clamps a requested budget to the server-wide cap, knob by knob: a
// zero knob means the client asked for no bound, which on a shared server
// becomes the cap itself — never unbounded. Negative knobs pass through so
// request validation can reject them with a 400 rather than being silently
// "fixed" here.
func capBudget(req, max fastod.Budget) fastod.Budget {
	if req.Timeout == 0 || req.Timeout > max.Timeout {
		req.Timeout = max.Timeout
	}
	if req.MaxNodes == 0 || req.MaxNodes > max.MaxNodes {
		req.MaxNodes = max.MaxNodes
	}
	return req
}
