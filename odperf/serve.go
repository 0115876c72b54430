package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	fastod "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/server"
)

// serve runs odserve's handler on a loopback listener with two datasets
// preloaded, and drives it with two closed-loop clients, each owning one
// dataset. Each client's request stream is fixed by the seed: repeats of
// questions it asked before (report-cache hits), a fixed share of
// first-time questions (runs), and a few uploads of fresh CSVs. Because a
// client only asks about its own dataset, which requests hit the cache
// depends on the seed alone, never on how the clients interleave.

const (
	// serveRate is the nominal request rate of one client; with --seconds it
	// fixes the stream length.
	serveRate = 44
	// coldShare and uploadShare are the shares of first-time discovers and
	// of uploads in a stream; the rest repeat earlier discovers.
	coldShare   = 0.2
	uploadShare = 0.08
	// maxUploads bounds one client's uploads, and with it the datasets the
	// server holds: nothing is ever deleted, so the server is configured
	// for both clients' uploads plus the two preloaded datasets (the
	// default limit of 64 would leave too few uploads for a steady median).
	maxUploads = 100
	// opHeader and spanHeader carry a traced request's op id and root span
	// id to the handler wrapper, which records the handler's span.
	opHeader   = "X-Odperf-Op"
	spanHeader = "X-Odperf-Span"
)

// serveSizes are the generated inputs' sizes: rows and columns of the
// flight-like and messy datasets, and rows of every uploaded CSV.
type serveSizes struct {
	rows, flightCols, messyCols, uploadRows, uploadCols int
}

var (
	fullServe = serveSizes{rows: 10000, flightCols: 10, messyCols: 8, uploadRows: 1500, uploadCols: 8}
	tinyServe = serveSizes{rows: 300, flightCols: 6, messyCols: 6, uploadRows: 100, uploadCols: 5}
)

// variant is one distinct discover request a client may send.
type variant struct {
	body      []byte
	alg       string
	maxLevel  int
	spec      string // canonical spec key; "" is the default order
	specOrder []server.OrderSpecJSON
}

// step is one planned request of a client's stream.
type step struct {
	upload  int // index into the client's uploads, or -1 for a discover
	variant int
	first   bool // the first time this client sends the variant: a run
}

// serveClient is one client's dataset, inputs and request plan.
type serveClient struct {
	id       int
	name     string
	csv      []byte
	rel      *relation.Relation // the benchmark's own decoded copy
	uploads  [][]byte
	upRows   int
	variants []variant
	refs     []int // variants answered by the library in set-up
	plan     []step
}

// newServeClient generates client c's dataset, uploads, variants and plan.
func newServeClient(cfg config, c int, sz serveSizes) (*serveClient, error) {
	seed := subSeed(cfg.seed, fmt.Sprintf("serve/client%d", c))
	var rel *relation.Relation
	upload := func(i int) *relation.Relation {
		s := subSeed(seed, fmt.Sprintf("upload%d", i))
		if c == 0 {
			return datagen.FlightLike(sz.uploadRows, sz.uploadCols, s)
		}
		return datagen.MessyRelation(sz.uploadRows, sz.uploadCols, 0.2, s)
	}
	if c == 0 {
		rel = datagen.FlightLike(sz.rows, sz.flightCols, seed)
	} else {
		rel = datagen.MessyRelation(sz.rows, sz.messyCols, 0.2, seed)
	}
	csv, err := csvOf(rel)
	if err != nil {
		return nil, err
	}
	// The copy comes from the CSV, exactly as the server decodes it.
	own, err := relation.ReadCSV("copy", bytes.NewReader(csv))
	if err != nil {
		return nil, err
	}
	cl := &serveClient{id: c, name: []string{"flight", "messy"}[c], csv: csv, rel: own, upRows: sz.uploadRows}

	n := opCount(cfg, serveRate)
	if cfg.tiny {
		n = 30
	}
	cold := max(1, int(float64(n)*coldShare+0.5))
	ups := min(maxUploads, max(1, int(float64(n)*uploadShare+0.5)))
	for i := 0; i < ups; i++ {
		b, err := csvOf(upload(i))
		if err != nil {
			return nil, err
		}
		cl.uploads = append(cl.uploads, b)
	}
	rng := rand.New(rand.NewSource(seed))
	cl.variants, cl.refs = makeVariants(rng, own.ColumnNames(), cold+2)
	cl.plan = makePlan(rng, n, cold, ups, len(cl.variants), cl.refs)
	return cl, nil
}

// makeVariants builds at least need distinct discover requests over the
// given columns: fastod, tane, bidir, approx and conditional crossed with
// max_level, their own options and order specs. The spec count grows with
// need; every spec overrides one or two columns' direction, NULL placement
// or collation. Each spec's re-encoding and partition store stay resident
// in the server, so the options grid is wide to keep the spec count, and
// the memory it costs, low. The returned refs are the default-order FASTOD
// and TANE requests the set-up answers.
func makeVariants(rng *rand.Rand, cols []string, need int) ([]variant, []int) {
	type shape struct {
		alg      string
		maxLevel int
		fastod   *server.FASTODOptions
		approx   *server.ApproxOptions
		cond     *server.ConditionalOptions
	}
	var shapes []shape
	fastodOpts := []*server.FASTODOptions{nil, {CountOnly: true}, {CollectLevelStats: true}, {DisableKeyPruning: true}}
	for _, l := range []int{0, 2, 3, 4, 5, 6} {
		for _, o := range fastodOpts {
			shapes = append(shapes, shape{alg: "fastod", maxLevel: l, fastod: o})
		}
		shapes = append(shapes, shape{alg: "tane", maxLevel: l}, shape{alg: "bidir", maxLevel: l})
	}
	for _, l := range []int{2, 3, 4} {
		for _, t := range []float64{0.01, 0.02, 0.03, 0.05, 0.1} {
			shapes = append(shapes, shape{alg: "approx", maxLevel: l, approx: &server.ApproxOptions{Threshold: t}})
		}
	}
	for _, l := range []int{0, 2, 3, 4} {
		for _, m := range []int{4, 16} {
			for _, card := range []int{8, 16} {
				shapes = append(shapes, shape{alg: "conditional", maxLevel: l,
					cond: &server.ConditionalOptions{MinSliceRows: m, MaxConditionCardinality: card}})
			}
		}
	}
	specs := [][]server.OrderSpecJSON{nil}
	seen := map[string]bool{"": true}
	for nSpecs := max(3, (need+len(shapes)-1)/len(shapes)); len(specs) < nSpecs; {
		s := randomSpec(rng, cols)
		if k := specKey(s); !seen[k] {
			seen[k] = true
			specs = append(specs, s)
		}
	}
	var out []variant
	var refs []int
	for _, s := range specs {
		for _, sh := range shapes {
			req := server.DiscoverRequest{
				Algorithm: sh.alg, Workers: engineWorkers, MaxLevel: sh.maxLevel, OrderSpecs: s,
				FASTOD: sh.fastod, Approx: sh.approx, Conditional: sh.cond,
			}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err) // plain structs always marshal
			}
			if s == nil && sh.maxLevel == 0 && sh.fastod == nil && (sh.alg == "fastod" || sh.alg == "tane") {
				refs = append(refs, len(out))
			}
			out = append(out, variant{body: body, alg: sh.alg, maxLevel: sh.maxLevel, spec: specKey(s), specOrder: s})
		}
	}
	return out, refs
}

// randomSpec overrides one or two distinct columns, each with at least one
// non-default setting, so no entry canonicalizes away.
func randomSpec(rng *rand.Rand, cols []string) []server.OrderSpecJSON {
	n := 1 + rng.Intn(2)
	var out []server.OrderSpecJSON
	for _, ci := range rng.Perm(len(cols))[:n] {
		for {
			o := server.OrderSpecJSON{
				Column:    cols[ci],
				Direction: []string{"asc", "desc"}[rng.Intn(2)],
				Nulls:     []string{"first", "last"}[rng.Intn(2)],
				Collation: []string{"", "lexicographic", "numeric", "case-insensitive", "date"}[rng.Intn(5)],
			}
			if o.Direction != "asc" || o.Nulls != "first" || o.Collation != "" {
				out = append(out, o)
				break
			}
		}
	}
	return out
}

// specKey is a canonical identity of a spec: its entries sorted by column.
func specKey(s []server.OrderSpecJSON) string {
	parts := make([]string, len(s))
	for i, o := range s {
		parts[i] = fmt.Sprintf("%q:%s,%s,%s", o.Column, o.Direction, o.Nulls, o.Collation)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// makePlan lays out a stream of n requests with exactly cold first-time
// discovers and ups uploads at seeded positions; every other request
// repeats a variant the client has already had answered, starting with the
// set-up's reference variants. The first-time variants are the first cold
// non-reference ones in the grid's order, sent in a seeded order: which
// algorithms and options a run pays for is the same for every seed, so the
// seed moves the data, the specs and the order, not the cost mix.
func makePlan(rng *rand.Rand, n, cold, ups, nVariants int, refs []int) []step {
	kinds := make([]int, n) // 0 repeat, 1 first-time, 2 upload
	for i := 0; i < cold; i++ {
		kinds[i] = 1
	}
	for i := cold; i < cold+ups; i++ {
		kinds[i] = 2
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	isRef := make(map[int]bool, len(refs))
	for _, r := range refs {
		isRef[r] = true
	}
	var firsts []int
	for v := 0; v < nVariants && len(firsts) < cold; v++ {
		if !isRef[v] {
			firsts = append(firsts, v)
		}
	}
	rng.Shuffle(len(firsts), func(i, j int) { firsts[i], firsts[j] = firsts[j], firsts[i] })
	used := append([]int(nil), refs...)
	plan := make([]step, n)
	next, upload := 0, 0
	for i, k := range kinds {
		switch k {
		case 0:
			plan[i] = step{upload: -1, variant: used[rng.Intn(len(used))]}
		case 1:
			v := firsts[next]
			next++
			used = append(used, v)
			plan[i] = step{upload: -1, variant: v, first: true}
		case 2:
			plan[i] = step{upload: upload}
			upload++
		}
	}
	return plan
}

// reply is what a client keeps of one completed request.
type reply struct {
	op      int
	step    step
	rtt     time.Duration
	size    int
	elapsed float64 // the run's elapsed_ms, on misses
	hits    int     // partition store hits and lookups, on misses
	lookups int
}

// clientRun is one client's record of the timed phase.
type clientRun struct {
	attempted, failed int
	replies           []reply
	firstDigest       map[int]string // variant → dependency digest of its first reply
	constancy, fds    map[string]int // "spec|level" → counts, for the cross-check
	specEncode        []float64      // ms, traced runs only
	decode, encode    []float64      // ms, upload replays of traced runs
	notes             []string
}

func (r *clientRun) failf(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// serveEnv is one set-up: a server listening on loopback with both
// datasets preloaded and their reference answers checked.
type serveEnv struct {
	srv      *server.Server
	hs       *http.Server
	done     chan error
	url      string
	client   *http.Client
	datasets []*fastod.Dataset
	handler  *handlerTimes
	first    []map[int]string // per client: variant → first reply digest
}

// handlerTimes collects the handler durations of traced requests by op id.
type handlerTimes struct {
	mu   sync.Mutex
	byOp map[int]time.Duration
}

// traceHandler wraps the server's handler: for a request carrying an op id
// it records a server.Handler span under the request's root span.
func traceHandler(next http.Handler, tr *tracer, ht *handlerTimes) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		if op == 0 {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		tr.record("server.Handler", parent, op, start, end)
		ht.mu.Lock()
		ht.byOp[op] = end.Sub(start)
		ht.mu.Unlock()
	})
}

// setUpServe starts a server, preloads both datasets through AddDataset,
// derives the reference answers with the library on the benchmark's own
// copies and checks that the server gives the same ones (which also warms
// it up).
func setUpServe(ctx context.Context, clients []*serveClient, tr *tracer) (*serveEnv, error) {
	env := &serveEnv{
		srv:     server.New(server.Config{MaxDatasets: serveClients * (maxUploads + 1)}),
		handler: &handlerTimes{byOp: map[int]time.Duration{}},
	}
	h := env.srv.Handler()
	if tr != nil {
		h = traceHandler(h, tr, env.handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	env.done = make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				env.done <- fmt.Errorf("serving panicked: %v", p)
			}
		}()
		env.done <- env.hs.Serve(ln)
	}()
	env.url = "http://" + ln.Addr().String()
	env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	for _, cl := range clients {
		ds, err := fastod.LoadCSV(cl.name, bytes.NewReader(cl.csv))
		if err != nil {
			env.close()
			return nil, err
		}
		if err := env.srv.AddDataset(cl.name, ds); err != nil {
			env.close()
			return nil, err
		}
		env.datasets = append(env.datasets, ds)
	}
	for _, cl := range clients {
		first, err := checkReferences(ctx, env, cl)
		if err != nil {
			env.close()
			return nil, err
		}
		env.first = append(env.first, first)
	}
	return env, nil
}

// checkReferences answers the client's reference variants with the
// library, sends them to the server, and requires identical dependency
// lists and TANE's FD count to equal FASTOD's constancy count.
func checkReferences(ctx context.Context, env *serveEnv, cl *serveClient) (map[int]string, error) {
	ds, err := fastod.LoadCSV(cl.name, bytes.NewReader(cl.csv))
	if err != nil {
		return nil, err
	}
	names := ds.ColumnNames()
	first := map[int]string{}
	var constancy, fds int
	for _, v := range cl.refs {
		alg := fastod.Algorithm(cl.variants[v].alg)
		rep, err := ds.Run(ctx, fastod.Request{Algorithm: alg, RunOptions: fastod.RunOptions{Workers: engineWorkers}})
		if err != nil {
			return nil, fmt.Errorf("%s reference %s: %w", cl.name, alg, err)
		}
		var deps []server.Dependency
		if rep.FASTOD != nil {
			constancy = rep.FASTOD.Counts.Constancy
			for _, od := range rep.FASTOD.ODs {
				deps = append(deps, server.Dependency{OD: od.NamesString(names)})
			}
		} else {
			fds = len(rep.TANE.FDs)
			for _, fd := range rep.TANE.FDs {
				deps = append(deps, server.Dependency{OD: fd.NamesString(names)})
			}
		}
		want, err := depsDigest(deps)
		if err != nil {
			return nil, err
		}
		resp, _, _, err := env.discover(ctx, cl.name, cl.variants[v].body, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%s reference %s over HTTP: %w", cl.name, alg, err)
		}
		got, err := depsDigest(resp.Dependencies)
		if err != nil {
			return nil, err
		}
		if got != want || resp.Interrupted || resp.Cached {
			return nil, fmt.Errorf("%s reference %s: the server's answer differs from the library's", cl.name, alg)
		}
		first[v] = got
	}
	if constancy != fds {
		return nil, fmt.Errorf("%s: TANE finds %d FDs but FASTOD %d constancy ODs", cl.name, fds, constancy)
	}
	return first, nil
}

func depsDigest(deps []server.Dependency) (string, error) {
	if deps == nil {
		deps = []server.Dependency{}
	}
	b, err := json.Marshal(deps)
	if err != nil {
		return "", err
	}
	d := newDigest()
	d.add(b)
	return d.hex(), nil
}

// discover sends one discover request and decodes the reply. It returns the
// round trip (request sent to body read) and the body size; op and parent
// are set on traced requests.
func (env *serveEnv) discover(ctx context.Context, dataset string, body []byte, op, parent int) (server.DiscoverResponse, time.Duration, int, error) {
	var resp server.DiscoverResponse
	raw, rtt, err := env.post(ctx, "/v1/datasets/"+dataset+"/discover", "application/json", body, op, parent, http.StatusOK)
	if err != nil {
		return resp, rtt, len(raw), err
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, rtt, len(raw), fmt.Errorf("decoding the reply: %w", err)
	}
	return resp, rtt, len(raw), nil
}

// post sends one request and reads the whole reply; a status other than
// want is an error.
func (env *serveEnv) post(ctx context.Context, path, ctype string, body []byte, op, parent, want int) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, env.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", ctype)
	if op != 0 {
		req.Header.Set(opHeader, strconv.Itoa(op))
		req.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	start := time.Now()
	res, err := env.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(res.Body)
	rtt := time.Since(start)
	res.Body.Close()
	if err != nil {
		return nil, rtt, err
	}
	if res.StatusCode != want {
		return raw, rtt, fmt.Errorf("status %d, want %d: %.200s", res.StatusCode, want, raw)
	}
	return raw, rtt, nil
}

func (env *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := env.hs.Shutdown(ctx); err != nil {
		env.hs.Close()
	}
	<-env.done
	env.client.CloseIdleConnections()
}

// drive runs one client's plan against the server.
func (env *serveEnv) drive(ctx context.Context, cl *serveClient, tr *tracer, deadline time.Time) *clientRun {
	run := &clientRun{
		firstDigest: env.first[cl.id],
		constancy:   map[string]int{}, fds: map[string]int{},
	}
	specSeen := map[string]bool{"": true}
	for i, st := range cl.plan {
		if time.Now().After(deadline) {
			run.notes = append(run.notes, fmt.Sprintf("client %d cut at the %v cap after %d of %d requests", cl.id, timedPhaseCap, i, len(cl.plan)))
			break
		}
		run.attempted++
		op := i*serveClients + cl.id + 1
		// Only traced requests carry their op and root span to the handler.
		hdrOp, root := 0, 0
		if tr != nil && i%2 == 1 {
			hdrOp, root = op, tr.open("request", 0, op)
		}
		if st.upload >= 0 {
			name := fmt.Sprintf("up%d-%d", cl.id, st.upload)
			raw, rtt, err := env.post(ctx, "/v1/datasets?name="+name, "text/csv", cl.uploads[st.upload], hdrOp, root, http.StatusCreated)
			tr.close(root)
			if err != nil {
				run.failf("upload %s: %v", name, err)
				continue
			}
			var info server.DatasetInfo
			if err := json.Unmarshal(raw, &info); err != nil || info.Rows != cl.upRows {
				run.failf("upload %s: reply %.200s, want %d rows", name, raw, cl.upRows)
				continue
			}
			run.replies = append(run.replies, reply{op: op, step: st, rtt: rtt, size: len(raw)})
			if tr != nil {
				run.replayUpload(tr, op, cl.uploads[st.upload])
			}
			continue
		}
		v := cl.variants[st.variant]
		resp, rtt, size, err := env.discover(ctx, cl.name, v.body, hdrOp, root)
		tr.close(root)
		if err != nil {
			run.failf("discover %s: %v", v.body, err)
			continue
		}
		if resp.Interrupted || resp.Cached == st.first {
			run.failf("discover %s: interrupted=%t cached=%t, planned first=%t", v.body, resp.Interrupted, resp.Cached, st.first)
			continue
		}
		got, err := depsDigest(resp.Dependencies)
		if err != nil {
			run.failf("discover %s: %v", v.body, err)
			continue
		}
		rp := reply{op: op, step: st, rtt: rtt, size: size}
		if st.first {
			run.firstDigest[st.variant] = got
			k := v.spec + "|" + strconv.Itoa(v.maxLevel)
			if v.alg == "fastod" {
				run.constancy[k] = resp.Counts.Constancy
			} else if v.alg == "tane" {
				run.fds[k] = resp.Count
			}
			rp.elapsed = resp.ElapsedMS
			rp.hits, rp.lookups = resp.Stats.PartitionHits, resp.Stats.PartitionHits+resp.Stats.PartitionMisses
			if tr != nil && !specSeen[v.spec] {
				specSeen[v.spec] = true
				if err := run.replaySpec(tr, op, cl.rel, v.specOrder); err != nil {
					run.failf("spec replay %s: %v", v.spec, err)
				}
			}
		} else if want := run.firstDigest[st.variant]; got != want {
			run.failf("discover %s: a cache hit differs from the first reply", v.body)
			continue
		}
		run.replies = append(run.replies, rp)
	}
	// Each spec and level where both FASTOD and TANE ran must agree on the
	// FD fragment.
	for k, fds := range run.fds {
		if c, ok := run.constancy[k]; ok && c != fds {
			run.failf("%s at %s: TANE finds %d FDs but FASTOD %d constancy ODs", cl.name, k, fds, c)
		}
	}
	return run
}

// replayUpload decodes and encodes an uploaded CSV on the benchmark's side,
// timing the relation layer's two calls the upload handler makes.
func (r *clientRun) replayUpload(tr *tracer, op int, csv []byte) {
	t0 := time.Now()
	rel, err := relation.ReadCSV("replay", bytes.NewReader(csv))
	if err != nil {
		r.failf("upload replay: %v", err)
		return
	}
	t1 := time.Now()
	if _, err := relation.Encode(rel); err != nil {
		r.failf("upload replay: %v", err)
		return
	}
	t2 := time.Now()
	tr.record("relation.ReadCSV", 0, op, t0, t1)
	tr.record("relation.Encode", 0, op, t1, t2)
	r.decode = append(r.decode, msOf(t1.Sub(t0)))
	r.encode = append(r.encode, msOf(t2.Sub(t1)))
}

// replaySpec re-encodes the benchmark's copy of the dataset under a spec
// the server has just seen for the first time, timing relation.EncodeSpec.
func (r *clientRun) replaySpec(tr *tracer, op int, rel *relation.Relation, orders []server.OrderSpecJSON) error {
	spec := make(relation.OrderSpec, rel.NumCols())
	for _, o := range orders {
		i := rel.ColumnIndex(o.Column)
		if i < 0 {
			return fmt.Errorf("unknown column %q", o.Column)
		}
		dir, err1 := relation.ParseDirection(o.Direction)
		nulls, err2 := relation.ParseNullOrder(o.Nulls)
		coll, err3 := relation.ParseCollation(o.Collation)
		if err := errors.Join(err1, err2, err3); err != nil {
			return err
		}
		spec[i] = relation.ColumnOrder{Direction: dir, Nulls: nulls, Collation: coll}
	}
	t0 := time.Now()
	if _, err := relation.EncodeSpec(rel, spec); err != nil {
		return err
	}
	t1 := time.Now()
	tr.record("relation.EncodeSpec", 0, op, t0, t1)
	r.specEncode = append(r.specEncode, msOf(t1.Sub(t0)))
	return nil
}

// runServe runs the serve workload.
func runServe(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	sz := fullServe
	if cfg.tiny {
		sz = tinyServe
	}
	var clients []*serveClient
	in := newDigest()
	for c := 0; c < serveClients; c++ {
		cl, err := newServeClient(cfg, c, sz)
		if err != nil {
			return nil, err
		}
		clients = append(clients, cl)
		in.add(cl.csv)
		in.add(cl.uploads...)
		for _, st := range cl.plan {
			in.add([]byte(fmt.Sprint(st.upload, st.variant, st.first)), cl.variants[st.variant].body)
		}
	}
	out := &outcome{inputDigest: in.hex(), classes: map[string]int{}}

	var env *serveEnv
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		if env != nil {
			env.close()
		}
		start := readCounters()
		var err error
		env, err = setUpServe(ctx, clients, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, start.until(readCounters()).adjusted().Seconds())
	}

	deadline := time.Now().Add(timedPhaseCap)
	runs := make([]*clientRun, len(clients))
	before := readCounters()
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// A panicking client counts as a failed op, not a dead run.
				if p := recover(); p != nil {
					runs[i] = &clientRun{attempted: 1, failed: 1, notes: []string{fmt.Sprintf("panicked: %v", p)}}
				}
			}()
			runs[i] = env.drive(ctx, cl, tr, deadline)
		}()
	}
	wg.Wait()
	ph := before.until(readCounters())
	// No speed probe: in this process it reads far slower than in tall's
	// and wide's and moves on its own (see README.md, Noise), so serve's
	// timings carry the steal adjustment alone.
	sp := speed{factor: 1}
	heap := liveHeap()
	env.close()

	var lat latencies
	var plainOps, tracedOps []float64
	var all []reply
	for c, run := range runs {
		out.attempted += run.attempted
		out.failed += run.failed
		for _, n := range run.notes {
			out.notef("client %d: %s", c, n)
		}
		all = append(all, run.replies...)
	}
	for _, rp := range all {
		ms := msOf(rp.rtt)
		lat.op = append(lat.op, ms)
		switch {
		case rp.step.upload >= 0:
			lat.upload = append(lat.upload, ms)
			out.classes["uploads"]++
		case rp.step.first:
			lat.cold = append(lat.cold, ms)
			out.classes["misses"]++
		default:
			lat.warm = append(lat.warm, ms)
			out.classes["hits"]++
		}
		if (rp.op-1)/serveClients%2 == 1 {
			tracedOps = append(tracedOps, ms)
		} else {
			plainOps = append(plainOps, ms)
		}
	}
	if len(lat.op) == 0 {
		return nil, fmt.Errorf("no request completed (%d attempted, %d failed)", out.attempted, out.failed)
	}
	out.correct = out.failed == 0
	out.notef("classes: %d hits, %d misses, %d uploads over %d variants", out.classes["hits"], out.classes["misses"], out.classes["uploads"], len(clients[0].variants)+len(clients[1].variants))
	if !cfg.trace {
		out.metrics = endToEnd(median(setups), lat, ph, heap, sp.factor)
		out.notef("samples: %d requests, p90 has %d beyond it; cold %d, warm %d, upload %d",
			len(lat.op), beyond(len(lat.op), 0.9), len(lat.cold), len(lat.warm), len(lat.upload))
		hostNote(out, lat, ph, median(setups), sp)
		return out, nil
	}
	out.metrics = serveLayers(env, runs, all, lat)
	runtimeLayer(out.metrics, ph, len(lat.op), sp)
	out.metrics["trace.overhead_pct"] = metric{overheadPct(tracedOps, plainOps), "%"}
	return out, nil
}

// serveLayers computes serve's per-layer metrics from the replies, the
// handler spans and the pools' own accounting. The layers only tall and
// wide reach read zero here.
func serveLayers(env *serveEnv, runs []*clientRun, all []reply, lat latencies) map[string]metric {
	m := zeroLayers()
	var specEncode, decode, encode []float64
	for _, r := range runs {
		specEncode = append(specEncode, r.specEncode...)
		decode = append(decode, r.decode...)
		encode = append(encode, r.encode...)
	}
	var warmHandler, warmKB, transport, coldOverhead, uploadHandler, runMs []float64
	var hits, lookups int
	env.handler.mu.Lock()
	defer env.handler.mu.Unlock()
	for _, rp := range all {
		h, traced := env.handler.byOp[rp.op]
		switch {
		case rp.step.upload >= 0:
			if traced {
				uploadHandler = append(uploadHandler, msOf(h))
			}
		case rp.step.first:
			runMs = append(runMs, rp.elapsed)
			hits += rp.hits
			lookups += rp.lookups
			if traced {
				coldOverhead = append(coldOverhead, msOf(h)-rp.elapsed)
			}
		default:
			warmKB = append(warmKB, float64(rp.size)/1024)
			if traced {
				warmHandler = append(warmHandler, usOf(h))
				transport = append(transport, usOf(rp.rtt-h))
			}
		}
	}
	rc := env.srv.ReportCacheStats()
	var storeCost, storeEvictions, specEntries int
	var specBytes int64
	for _, ds := range env.datasets {
		st := ds.EnablePartitionCache(0).Stats() // returns the store the upload path attached
		storeCost += st.Cost
		storeEvictions += st.Evictions
		e, b := ds.SpecEncodingCacheStats()
		specEntries += e
		specBytes += b
	}
	m["relation.decode_ms"] = metric{median(decode), "ms"}
	m["relation.encode_ms"] = metric{median(encode), "ms"}
	m["relation.spec_encode_ms"] = metric{median(specEncode), "ms"}
	if lookups > 0 {
		m["lattice.store_hit_ratio"] = metric{float64(hits) / float64(lookups), "ratio"}
	}
	m["lattice.store_mb"] = metric{mib(float64(storeCost)), "MB"}
	m["lattice.store_evictions"] = metric{float64(storeEvictions), "count"}
	m["fastod.run_ms"] = metric{median(runMs), "ms"}
	m["fastod.spec_cache_entries"] = metric{float64(specEntries), "count"}
	m["fastod.spec_cache_mb"] = metric{mib(float64(specBytes)), "MB"}
	if n := rc.Hits + rc.Misses; n > 0 {
		m["reportcache.hit_ratio"] = metric{float64(rc.Hits) / float64(n), "ratio"}
	}
	m["reportcache.mb"] = metric{mib(float64(rc.Cost)), "MB"}
	m["reportcache.evictions"] = metric{float64(rc.Evictions), "count"}
	m["server.warm_handler_us"] = metric{median(warmHandler), "us"}
	m["server.warm_reply_kb"] = metric{median(warmKB), "KB"}
	m["server.transport_us"] = metric{median(transport), "us"}
	m["server.cold_overhead_ms"] = metric{median(coldOverhead), "ms"}
	m["server.upload_handler_ms"] = metric{median(uploadHandler), "ms"}
	m["server.pools_mb"] = metric{mib(float64(rc.Cost + storeCost + int(specBytes))), "MB"}
	m["server.warm_p90_ms"] = metric{quantile(lat.warm, 0.9), "ms"}
	return m
}
