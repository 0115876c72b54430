// Command odserve serves order-dependency discovery over HTTP: the unified
// Run API — all six algorithms, budgets, partial results and per-level
// progress — exposed as the JSON service implemented by internal/server.
//
// Usage:
//
//	odserve [-addr :8080] [-max-concurrent N] [-max-timeout D] [-max-nodes N]
//	        [-max-upload-bytes N] [-max-datasets N] [-max-request-bytes N]
//	        [-report-cache-bytes N] [-max-heap-bytes N] [name=path.csv ...]
//
// Positional name=path arguments preload CSV files as named datasets; more
// can be uploaded at runtime with POST /v1/datasets?name=N. Every discovery
// request is subject to the server-side budget cap (-max-timeout and
// -max-nodes): a request may ask for less, never for more, and a run that
// exhausts its budget returns HTTP 200 with "interrupted": true and the
// partial report. Invalid requests fail fast with HTTP 400; JSON bodies over
// -max-request-bytes with 413. The replies of completed runs are kept in a
// bounded report cache (-report-cache-bytes) keyed by dataset version and
// canonical request, so a repeated question is answered in microseconds with
// the stored reply and "cached": true. See the README section "Serving discovery over HTTP" for
// the endpoint and JSON shapes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	fastod "repro"
	"repro/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "address to listen on")
		maxConcurrent = flag.Int("max-concurrent", server.DefaultMaxConcurrent, "discovery runs allowed to execute at once")
		maxTimeout    = flag.Duration("max-timeout", fastod.DefaultBudget().Timeout, "server-side cap on one run's wall-clock budget")
		maxNodes      = flag.Int("max-nodes", fastod.DefaultBudget().MaxNodes, "server-side cap on one run's visited lattice nodes")
		maxUpload     = flag.Int64("max-upload-bytes", server.DefaultMaxUploadBytes, "largest accepted CSV upload body")
		maxDatasets   = flag.Int("max-datasets", server.DefaultMaxDatasets, "datasets allowed to be resident at once")
		maxRequest    = flag.Int64("max-request-bytes", server.DefaultMaxRequestBytes, "largest accepted JSON discover request body")
		reportCache   = flag.Int("report-cache-bytes", server.DefaultReportCacheBytes, "report cache bound in bytes of cached replies (the replies of completed runs, kept per dataset version and request)")
		maxHeapBytes  = flag.Uint64("max-heap-bytes", 0, "soft heap limit: shed new discovery runs with 503 while live heap objects exceed this (0 disables)")
	)
	flag.Parse()
	cfg := config{
		addr: *addr,
		server: server.Config{
			MaxConcurrent:    *maxConcurrent,
			MaxBudget:        fastod.Budget{Timeout: *maxTimeout, MaxNodes: *maxNodes},
			MaxUploadBytes:   *maxUpload,
			MaxDatasets:      *maxDatasets,
			MaxRequestBytes:  *maxRequest,
			ReportCacheBytes: *reportCache,
			MaxHeapBytes:     *maxHeapBytes,
		},
		preload: flag.Args(),
	}
	// SIGINT drains gracefully: in-flight runs are cancelled cooperatively
	// (their clients still receive partial reports) and the listener closes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Log the limits the server actually enforces, not the raw flags (zero
	// flags select the defaults, never "unlimited").
	eff := cfg.server.Normalized()
	if err := serve(ctx, cfg, func(addr string) {
		log.Printf("odserve listening on %s (%d CPUs, cap %v/%d nodes per run, %d concurrent runs)",
			addr, runtime.GOMAXPROCS(0), eff.MaxBudget.Timeout, eff.MaxBudget.MaxNodes, eff.MaxConcurrent)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "odserve: %v\n", err)
		os.Exit(1)
	}
}

// config mirrors the command line.
type config struct {
	addr    string
	server  server.Config
	preload []string // name=path.csv pairs
}

// newServer builds the service and preloads the configured datasets.
func newServer(cfg config) (*server.Server, error) {
	s := server.New(cfg.server)
	for _, arg := range cfg.preload {
		name, path, ok := strings.Cut(arg, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("preload argument %q is not name=path.csv", arg)
		}
		ds, err := fastod.LoadCSVFile(path)
		if err != nil {
			return nil, fmt.Errorf("preloading %q: %w", arg, err)
		}
		if err := s.AddDataset(name, ds); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// serve runs the HTTP server until ctx fires, then shuts down gracefully.
// ready (when non-nil) is called with the bound address once the listener is
// up — the test harness uses it to learn the port of ":0".
func serve(ctx context.Context, cfg config, ready func(addr string)) error {
	s, err := newServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// BaseContext ties every request context to ctx, so in-flight discovery
	// runs are interrupted as soon as shutdown begins instead of holding the
	// drain open for their full budget. The write timeout must outlast the
	// longest legitimate response — an SSE stream spanning a full budgeted
	// run — while still evicting stalled clients, which would otherwise hold
	// a run-semaphore slot forever (a blocked TCP write is not a cooperative
	// cancellation point).
	maxRun := cfg.server.Normalized().MaxBudget.Timeout
	// Both whole-request deadlines must outlive the longest handler — the
	// read deadline too, because net/http's background body read trips it
	// even after the handler has consumed the request, which would cut a
	// long budgeted run short at the timeout with nothing to indicate why.
	srv := &http.Server{
		Handler:           s.Handler(),
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       maxRun + 2*time.Minute,
		WriteTimeout:      maxRun + 2*time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	errc := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				errc <- fmt.Errorf("http server panicked: %v", r)
			}
		}()
		errc <- srv.Serve(ln)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		//lint:allow ctxfirst the shutdown deadline must outlive the already-cancelled run ctx
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
