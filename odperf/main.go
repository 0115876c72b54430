// Command odperf is the repository's benchmark. It runs one workload of the
// FASTOD system on inputs generated from a seed, checks every answer, and
// prints the workload's metrics:
//
//	bash odperf/bench.sh --workload tall --seed 1 --seconds 25 --trace 0
//
// Workloads: tall (flight-like 20 000×10 through the fastod command's op),
// wide (hepatitis-like 155×13, same op) and serve (odserve's handler under
// two closed-loop clients). --workload all runs the three, each in a fresh
// process. --trace 1 replaces the end-to-end metrics with per-layer ones
// and writes a span file. See README.md for the metrics and their meaning.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it repeat every
// metric as workload/metric value unit, and record the environment.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// engineWorkers is the worker count of every discovery run: the number
	// of CPUs of the machine the benchmark was sized on.
	engineWorkers = 2
	// serveClients is the number of closed-loop clients of serve.
	serveClients = 2
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 5
	// warmupOps is the number of untimed ops each tall or wide set-up runs.
	warmupOps = 2
	// setupProbes is the number of speed probes after each tall or wide
	// set-up; each timed op is followed by one more.
	setupProbes = 4
	// minOps keeps at least ten samples beyond every reported p90.
	minOps = 100
	// timedPhaseCap stops issuing ops if a slow machine would otherwise keep
	// the run going past the time it is allowed.
	timedPhaseCap = 100 * time.Second
)

// workloads lists the workloads in the order --workload all runs them.
var workloads = []string{"tall", "wide", "serve"}

// endToEndMetrics and layerMetrics are the metric names and units of the
// two kinds of run, in print order. ungatedMetrics are end-to-end metrics
// printed beside the others but kept out of the result line, so no bound
// applies to them: serve's uploads move with the machine's speed twice as
// much as its CPU time does (see README.md, Noise).
var endToEndMetrics = []metricName{
	{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"}, {"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"}, {"alloc_mb_per_op", "MB"}, {"rss_peak_mb", "MB"},
	{"heap_live_mb", "MB"}, {"cold_p50_ms", "ms"}, {"warm_p50_ms", "ms"},
}

var ungatedMetrics = []metricName{{"upload_p50_ms", "ms"}}

var layerMetrics = []metricName{
	{"relation.decode_ms", "ms"}, {"relation.encode_ms", "ms"}, {"relation.spec_encode_ms", "ms"},
	{"partition.seed_ms", "ms"}, {"partition.pair_product_ms", "ms"},
	{"core.discover_ms", "ms"}, {"core.first_level_ms", "ms"}, {"core.us_per_node", "us"},
	{"core.fd_checks", "count"}, {"core.swap_checks", "count"}, {"core.key_prunes", "count"},
	{"core.nodes_pruned", "count"}, {"core.ods", "count"},
	{"lattice.nodes", "count"}, {"lattice.max_level", "count"}, {"lattice.busy_frac", "ratio"},
	{"lattice.store_hit_ratio", "ratio"}, {"lattice.store_mb", "MB"}, {"lattice.store_evictions", "count"},
	{"fastod.run_ms", "ms"}, {"fastod.spec_cache_entries", "count"}, {"fastod.spec_cache_mb", "MB"},
	{"reportcache.hit_ratio", "ratio"}, {"reportcache.mb", "MB"}, {"reportcache.evictions", "count"},
	{"server.warm_handler_us", "us"}, {"server.warm_reply_kb", "KB"}, {"server.transport_us", "us"},
	{"server.cold_overhead_ms", "ms"}, {"server.upload_handler_ms", "ms"}, {"server.pools_mb", "MB"},
	{"server.warm_p90_ms", "ms"},
	{"runtime.gc_cpu_ms_per_op", "ms"}, {"runtime.gc_cycles_per_op", "count"}, {"runtime.steal_pct", "%"},
	{"runtime.probe_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metricName struct{ name, unit string }

// metric is one reported value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// tiny shrinks every input and op count for the self-test.
	tiny   bool
	root   string
	outDir string
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]metric
	// inputDigest identifies every input the seed generated.
	inputDigest string
	// classes counts completed ops per class (serve: hits, misses, uploads).
	classes map[string]int
	notes   []string
	tracer  *tracer
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// opCount is the number of timed ops (serve: requests per client) of a run:
// seconds times the workload's nominal rate, at least minOps. It depends on
// the arguments only, so class counts and per-op figures never depend on
// how fast the program runs.
func opCount(cfg config, rate float64) int {
	if cfg.tiny {
		return 12
	}
	return max(minOps, int(math.Round(rate*float64(cfg.seconds))))
}

// zeroLayers returns every per-layer metric at zero: the value of a layer
// the workload does not reach.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, n := range layerMetrics {
		m[n.name] = metric{0, n.unit}
	}
	return m
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, cfg config) (*outcome, error) {
	var out *outcome
	var err error
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	switch cfg.workload {
	case "tall", "wide":
		out, err = runLattice(ctx, cfg, tr)
	case "serve":
		out, err = runServe(ctx, cfg, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want tall, wide, serve or all)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	out.tracer = tr
	return out, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: tall, wide, serve or all")
	flag.Int64Var(&cfg.seed, "seed", 2017, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 25, "nominal length of the timed phase in seconds; sets the op count")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and writes a span file instead of end-to-end metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the source tree being measured (for the environment record)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for span files")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "odperf:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if p := runtime.GOMAXPROCS(0); p < engineWorkers {
		return fmt.Errorf("GOMAXPROCS is %d, below the %d engine workers every run uses: the numbers would measure the scheduler, not the program", p, engineWorkers)
	}
	env := environment(cfg)
	line, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", line)
	if cfg.workload == "all" {
		return runAll(cfg)
	}
	out, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	names := endToEndMetrics
	if cfg.trace {
		names = layerMetrics
		path, err := out.tracer.write(filepath.Join(cfg.outDir, "spans"), cfg.workload, cfg.seed)
		if err != nil {
			return err
		}
		fmt.Printf("spans %s (%d)\n", path, len(out.tracer.spans))
		self := out.tracer.selfTimes()
		keys := make([]string, 0, len(self))
		for k := range self {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("self_ms %s %.3f\n", k, self[k])
		}
	}
	for _, n := range out.notes {
		fmt.Printf("note %s\n", n)
	}
	fmt.Printf("input_digest %s\n", out.inputDigest)
	classes, _ := json.Marshal(out.classes)
	fmt.Printf("classes %s\n", classes)
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := out.metrics[n.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, n.name)
		}
		res.Metrics[n.name] = m
		fmt.Printf("%s/%s %v %s\n", cfg.workload, n.name, m.Value, m.Unit)
	}
	if !cfg.trace {
		for _, n := range ungatedMetrics {
			m := out.metrics[n.name]
			fmt.Printf("%s/%s %v %s (not gated)\n", cfg.workload, n.name, m.Value, m.Unit)
		}
	}
	return printResult(res)
}

func printResult(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in a fresh process of this binary, passing the
// same arguments, and prints their lines followed by one result whose
// metrics are named workload/metric.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		args := []string{"--workload", w, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
			"--root", cfg.root, "--out", cfg.outDir}
		if cfg.trace {
			args = append(args, "--trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
		last, err := relayLines(&stdout)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("workload %s: reading its result: %w", w, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w+"/"+k] = m
		}
	}
	return printResult(all)
}

// relayLines prints every line of r but the last, skipping the environment
// record the parent already printed, and returns the last line.
func relayLines(r io.Reader) (string, error) {
	var lines []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if len(lines) == 0 {
		return "", errors.New("no output")
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, "env ") {
			fmt.Println(l)
		}
	}
	return lines[len(lines)-1], nil
}

// envRecord is the environment every result is recorded with.
type envRecord struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	SourceDigest  string `json:"source_digest"`
	EngineWorkers int    `json:"engine_workers"`
	Clients       int    `json:"clients"`
}

func environment(cfg config) envRecord {
	clients := 1
	if cfg.workload == "serve" || cfg.workload == "all" {
		clients = serveClients
	}
	return envRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), SourceDigest: sourceDigest(cfg.root),
		EngineWorkers: engineWorkers, Clients: clients,
	}
}

// commit returns the VCS revision the binary was built from, marked
// "+dirty" when the tree had local changes, or "unknown" outside a
// repository; sourceDigest identifies the code either way.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories (build outputs live in one), so two runs of the same
// code share it even where no VCS metadata exists.
func sourceDigest(root string) string {
	d := newDigest()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		d.add([]byte(filepath.ToSlash(rel)), body)
		return nil
	})
	if err != nil {
		return "unreadable: " + err.Error()
	}
	return d.hex()[:16]
}
