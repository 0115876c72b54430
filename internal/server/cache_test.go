package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	fastod "repro"
	"repro/internal/datagen"
)

// discoverRaw POSTs a JSON discovery request and returns the status plus the
// exact response bytes, for byte-identical replay assertions.
func discoverRaw(t *testing.T, url, dataset, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/datasets/"+dataset+"/discover", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading discover response: %v", err)
	}
	return resp.StatusCode, raw
}

// replyBytes POSTs a discover request to the plain or the streaming endpoint
// and returns the reply: the body of /discover, or the data of the final
// report event of /discover/stream.
func replyBytes(t *testing.T, url, dataset, body string, stream bool) []byte {
	t.Helper()
	if !stream {
		status, raw := discoverRaw(t, url, dataset, body)
		if status != http.StatusOK {
			t.Fatalf("discover %s: status %d: %s", body, status, raw)
		}
		return raw
	}
	resp, err := http.Post(url+"/v1/datasets/"+dataset+"/discover/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	events := parseSSE(t, resp.Body)
	if last := events[len(events)-1]; last.name == "report" {
		return []byte(last.data)
	}
	t.Fatalf("stream %s ended without a report event: %+v", body, events)
	return nil
}

// TestDiscoverCacheHitReplaysByteIdentical: for every algorithm, on both
// endpoints, a hit replays the reply its miss sent. It differs from the miss
// only by the cached marker, and a hit for a request that differs only in
// workers also by the workers it reports. The stored reply carries the
// original run's stats and elapsed time.
func TestDiscoverCacheHitReplaysByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	csv := csvOf(t, datagen.HepatitisLike(60, 6, 7))
	upload(t, ts, "plain", csv).Body.Close()
	upload(t, ts, "stream", csv).Body.Close()

	extra := map[fastod.Algorithm]string{fastod.AlgorithmApprox: `,"approx":{"threshold":0.05}`}
	for _, dataset := range []string{"plain", "stream"} {
		stream := dataset == "stream"
		for _, alg := range fastod.Algorithms() {
			body := func(workers int) string {
				return fmt.Sprintf(`{"algorithm":%q,"workers":%d%s}`, alg, workers, extra[alg])
			}
			miss := replyBytes(t, ts.URL, dataset, body(1), stream)
			hit := replyBytes(t, ts.URL, dataset, body(1), stream)
			again := replyBytes(t, ts.URL, dataset, body(1), stream)
			other := replyBytes(t, ts.URL, dataset, body(2), stream)
			if !bytes.Contains(miss, []byte(`"interrupted":false,"cached":false`)) {
				t.Fatalf("%s %s: first reply is not a complete run's: %s", dataset, alg, miss)
			}
			want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1)
			if !bytes.Equal(hit, want) || !bytes.Equal(again, want) {
				t.Errorf("%s %s: a hit is not a replay of the miss:\n %s\n %s", dataset, alg, miss, hit)
			}
			workers := fastod.Request{Algorithm: alg, RunOptions: fastod.RunOptions{Workers: 2}}.EffectiveWorkers()
			want = bytes.Replace(want, []byte(`"workers":1,`), fmt.Appendf(nil, `"workers":%d,`, workers), 1)
			if !bytes.Equal(other, want) {
				t.Errorf("%s %s: the hit for workers 2 differs from the miss beyond workers:\n %s\n %s", dataset, alg, miss, other)
			}
		}
	}

	st := s.ReportCacheStats()
	runs := 2 * len(fastod.Algorithms())
	if st.Hits != 3*runs || st.Misses != runs || st.Puts != runs || st.Entries != runs || st.Rejects != 0 {
		t.Errorf("cache stats = %+v, want %d hits and %d misses, puts and entries", st, 3*runs, runs)
	}
}

func TestDiscoverCacheIsWorkerInvariant(t *testing.T) {
	// Workers is an execution knob with no effect on the output, so requests
	// differing only in it must share a cache entry. An empty body and an
	// explicit default algorithm are likewise the same question.
	s, ts := newTestServer(t, Config{})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()

	discoverRaw(t, ts.URL, "emp", `{"workers":1}`)
	for _, body := range []string{`{"workers":4}`, `{"algorithm":"fastod"}`, ``} {
		var out DiscoverResponse
		_, raw := discoverRaw(t, ts.URL, "emp", body)
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Cached {
			t.Errorf("request %q missed the cache populated by workers:1", body)
		}
	}
	if st := s.ReportCacheStats(); st.Entries != 1 {
		t.Errorf("worker variants split into %d cache entries, want 1", st.Entries)
	}
}

func TestDiscoverCacheDistinguishesOrderSpecs(t *testing.T) {
	// Requests differing only in order_specs ask different questions (the
	// lattice runs over different rank encodings), so they must never share a
	// cache entry — while each spec replays from its own entry.
	s, ts := newTestServer(t, Config{})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()

	bodies := []string{
		`{"order_specs":[{"column":"sal","direction":"desc"}]}`,
		`{"order_specs":[{"column":"sal","direction":"desc","nulls":"last"}]}`,
	}
	for _, body := range bodies {
		var out DiscoverResponse
		_, raw := discoverRaw(t, ts.URL, "emp", body)
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Errorf("first request under spec %q reported cached", body)
		}
	}
	for _, body := range bodies {
		var out DiscoverResponse
		_, raw := discoverRaw(t, ts.URL, "emp", body)
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Cached {
			t.Errorf("repeat request under spec %q missed the cache", body)
		}
	}
	if st := s.ReportCacheStats(); st.Entries != 2 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("cache stats = %+v, want 2 entries, 2 misses, 2 hits", st)
	}

	// Spelling variants of the same canonical spec are the same question: the
	// default placement written out explicitly must hit the desc entry.
	var out DiscoverResponse
	_, raw := discoverRaw(t, ts.URL, "emp",
		`{"order_specs":[{"column":"sal","direction":"DESC","nulls":"first"}]}`)
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("canonically-equal spec spelling missed the cache")
	}
}

func TestInterruptedReportsAreNeverCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	upload(t, ts, "flight", csvOf(t, datagen.FlightLike(300, 6, 2017))).Body.Close()

	for i := 0; i < 2; i++ {
		var out DiscoverResponse
		_, raw := discoverRaw(t, ts.URL, "flight", `{"max_nodes":1}`)
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Interrupted {
			t.Fatalf("run %d with max_nodes=1 not interrupted", i)
		}
		if out.Cached {
			t.Fatalf("run %d served an interrupted report from the cache", i)
		}
	}
	if st := s.ReportCacheStats(); st.Entries != 0 || st.Rejects != 2 {
		t.Errorf("cache stats = %+v, want 0 entries and 2 rejected puts", st)
	}
}

func TestOversizedRepliesAreNeverCached(t *testing.T) {
	s, ts := newTestServer(t, Config{ReportCacheBytes: 64})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()

	for i := 0; i < 2; i++ {
		var out DiscoverResponse
		_, raw := discoverRaw(t, ts.URL, "emp", ``)
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached || out.Interrupted {
			t.Fatalf("run %d: cached=%v interrupted=%v, want a fresh complete run", i, out.Cached, out.Interrupted)
		}
	}
	if st := s.ReportCacheStats(); st.Entries != 0 || st.Rejects != 2 || st.Evictions != 0 {
		t.Errorf("cache stats = %+v, want 0 entries, 2 rejected puts and no evictions", st)
	}
}

// testReply builds a complete reply with n dependencies, so tests can steer
// entry costs.
func testReply(n int) *DiscoverResponse {
	resp := &DiscoverResponse{Dataset: "d", Algorithm: "fastod", Dependencies: make([]Dependency, n)}
	for i := range resp.Dependencies {
		resp.Dependencies[i] = Dependency{OD: fmt.Sprintf("{a}: [] -> c%d", i%8)}
	}
	return resp
}

func TestReportCacheBoundAndLRUEviction(t *testing.T) {
	// Size the bound to hold three and a half of the entries.
	cost := replyCost("k0", testReply(10))
	s := New(Config{ReportCacheBytes: 3*cost + cost/2})
	for i := 0; i < 5; i++ {
		s.cacheReply(fmt.Sprintf("k%d", i), testReply(10))
	}
	st := s.ReportCacheStats()
	if st.Cost > st.MaxCost || st.Evictions == 0 || st.Rejects != 0 {
		t.Errorf("stats = %+v, want evictions keeping the cost %d within the bound", st, st.Cost)
	}
	cached := func(key string) bool {
		_, ok := s.cachedReply(key, fastod.Request{})
		return ok
	}
	// The oldest entries are gone, the newest survive.
	if cached("k0") {
		t.Error("k0 survived eviction ahead of newer entries")
	}
	if !cached("k4") {
		t.Error("newest entry k4 was evicted")
	}
	// Refreshing k2's recency must make k3 the next victim.
	if !cached("k2") {
		t.Fatal("k2 missing before the recency check")
	}
	for i := 5; i < 7; i++ {
		s.cacheReply(fmt.Sprintf("k%d", i), testReply(10))
	}
	if !cached("k2") {
		t.Error("recently used k2 was evicted before stale k3")
	}
	if cached("k3") {
		t.Error("stale k3 survived while newer entries were inserted")
	}
}

func TestReportCacheKeepsFirstReply(t *testing.T) {
	s := New(Config{})
	first, second := testReply(2), testReply(2)
	s.cacheReply("k", first)
	s.cacheReply("k", second)
	if got, _ := s.reports.Get("k"); got != first {
		t.Error("a second reply under a resident key replaced the first")
	}
	if st := s.ReportCacheStats(); st.Puts != 1 || st.Entries != 1 || st.Rejects != 0 {
		t.Errorf("stats = %+v, want one put, one entry and no rejects", st)
	}
}

// TestReplyCostTracksHeap: the cache charges a reply what the heap holds for
// it, up to size-class rounding: replies rendered from every algorithm's
// report hold between 1 and 1.5 times what they are charged.
func TestReplyCostTracksHeap(t *testing.T) {
	ds := fastod.SyntheticFlight(2000, 9, 7)
	names := ds.ColumnNames()
	for _, alg := range fastod.Algorithms() {
		req := fastod.Request{Algorithm: alg, RunOptions: fastod.RunOptions{Workers: 1, Budget: fastod.Budget{MaxNodes: 3000}}}
		req.Approx.Threshold = 0.05
		rep, err := ds.Run(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		// Two cycles settle the heap. Memory that one cycle leaves to the
		// next, such as a sync.Pool's victim cache, would otherwise be
		// freed inside the window and offset what the replies hold.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		held := make([]*DiscoverResponse, 100)
		charged := 0
		for i := range held {
			held[i] = discoverResponse("flight", req, rep, names)
			charged += replyCost("", held[i])
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		ratio := float64(ms.HeapAlloc-before) / float64(charged)
		if ratio < 1 || ratio > 1.5 {
			t.Errorf("%s: %d replies hold %d heap bytes against %d charged (ratio %.3f)",
				alg, len(held), ms.HeapAlloc-before, charged, ratio)
		}
		runtime.KeepAlive(held)
	}
}

func TestDiscoverStreamCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	upload(t, ts, "flight", csvOf(t, datagen.FlightLike(300, 6, 2017))).Body.Close()

	// Populate through the plain endpoint; the stream shares the cache (the
	// report is the same either way), and workers is not part of the key.
	discoverRaw(t, ts.URL, "flight", ``)

	resp, err := http.Post(ts.URL+"/v1/datasets/flight/discover/stream", "application/json", strings.NewReader(`{"workers":1}`))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	events := parseSSE(t, resp.Body)
	// A cache hit has no run to report progress on: the stream is exactly one
	// final report event.
	if len(events) != 1 || events[0].name != "report" {
		names := make([]string, len(events))
		for i, ev := range events {
			names[i] = ev.name
		}
		t.Fatalf("cached stream events = %v, want exactly [report]", names)
	}
	var out DiscoverResponse
	if err := json.Unmarshal([]byte(events[0].data), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached || out.Interrupted || out.Count == 0 {
		t.Errorf("cached stream report %+v, want a complete cached report", out)
	}
}

// TestStreamReportMatchesDiscoverBytes: a report event's data is the body
// /discover returns, less its final newline, also for a reply whose
// dependencies print "->", which HTML escaping would print as "-\u003e".
// Both replies are hits, so neither carries a run's own elapsed time.
func TestStreamReportMatchesDiscoverBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	upload(t, ts, "hep", csvOf(t, datagen.HepatitisLike(60, 6, 7))).Body.Close()
	body := `{"workers":1}`
	replyBytes(t, ts.URL, "hep", body, false)
	plain := replyBytes(t, ts.URL, "hep", body, false)
	streamed := replyBytes(t, ts.URL, "hep", body, true)
	if !bytes.Contains(plain, []byte("->")) {
		t.Fatalf("the reply prints no \"->\": %s", plain)
	}
	if want := bytes.TrimSuffix(plain, []byte("\n")); !bytes.Equal(streamed, want) {
		t.Errorf("stream report data differs from the /discover body:\n %s\n %s", streamed, want)
	}
}

func TestHealthzReportsCacheStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()
	discoverRaw(t, ts.URL, "emp", ``)
	discoverRaw(t, ts.URL, "emp", ``)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading healthz: %v", err)
	}
	var health HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	var wire struct {
		ReportCache map[string]int `json:"report_cache"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	want := []string{"cost_bytes", "entries", "evictions", "hits", "max_cost_bytes", "misses", "puts", "rejects"}
	if got := slices.Sorted(maps.Keys(wire.ReportCache)); !slices.Equal(got, want) {
		t.Errorf("healthz report_cache keys = %v, want %v", got, want)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", health.Status)
	}
	rc := health.ReportCache
	if rc.Hits != 1 || rc.Misses != 1 || rc.Entries != 1 {
		t.Errorf("healthz report_cache = %+v, want 1 hit, 1 miss, 1 entry", rc)
	}
	if rc.Cost <= 0 || rc.MaxCost != DefaultReportCacheBytes {
		t.Errorf("healthz report_cache accounting = %+v, want positive cost under the default bound", rc)
	}
}

func TestDiscoverBodyTooLargeIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRequestBytes: 64})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()

	big := `{"algorithm":"fastod","fastod":{` + strings.Repeat(" ", 128) + `}}`
	status, raw := discoverRaw(t, ts.URL, "emp", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d (%s), want 413", status, raw)
	}
	// A body within the bound still works.
	if status, _ := discoverRaw(t, ts.URL, "emp", `{"workers":1}`); status != http.StatusOK {
		t.Errorf("small body status = %d, want 200", status)
	}
}

func TestDiscoverTrailingGarbageIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()

	// Each body starts with one valid JSON value; everything after it must
	// make the request fail, not be silently dropped.
	for _, body := range []string{
		`{}{"workers":-1}`,
		`{} 5`,
		`{"workers":1}[]`,
		`{} trailing`,
		`null null`,
	} {
		status, raw := discoverRaw(t, ts.URL, "emp", body)
		if status != http.StatusBadRequest {
			t.Errorf("body %q status = %d (%s), want 400", body, status, raw)
			continue
		}
		var errBody errorBody
		if err := json.Unmarshal(raw, &errBody); err != nil {
			t.Fatalf("decoding error response %q: %v", raw, err)
		}
		if !strings.Contains(errBody.Error, "trailing") && !strings.Contains(errBody.Error, "single JSON") {
			t.Errorf("body %q error %q does not mention the trailing data", body, errBody.Error)
		}
	}
}

func TestConcurrentUploadSameNameRace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := csvOf(t, datagen.Employees())

	const racers = 8
	statuses := make([]int, racers)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			resp := upload(t, ts, "emp", csv)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	start.Done()
	wg.Wait()

	var created, conflict, other int
	for _, code := range statuses {
		switch code {
		case http.StatusCreated:
			created++
		case http.StatusConflict:
			conflict++
		default:
			other++
		}
	}
	// Exactly one racer wins; every loser sees the conflict, never a 500 and
	// never a second 201.
	if created != 1 || conflict != racers-1 || other != 0 {
		t.Errorf("race outcome: %d created, %d conflict, %d other (statuses %v), want 1/%d/0",
			created, conflict, other, statuses, racers-1)
	}
}

func TestCacheKeySeparatesCoordinates(t *testing.T) {
	// Distinct (dataset, version, fingerprint) coordinates must yield
	// distinct keys, including adversarial dataset names.
	keys := map[string]bool{
		cacheKey("a", 1, "alg=fastod"):             true,
		cacheKey("a", 2, "alg=fastod"):             true,
		cacheKey("b", 1, "alg=fastod"):             true,
		cacheKey("a", 1, "alg=tane"):               true,
		cacheKey("a@2", 1, "alg=fastod"):           true,
		cacheKey("a", 21, "alg=fastod"):            true,
		cacheKey("a@2|x", 3, "alg=tane"):           true,
		cacheKey("a", 2, "x|alg=tane"):             true,
		cacheKey("a@1|alg=x", 1, "y"):              true,
		cacheKey("a@1", 1, "alg=x|y"):              true,
		cacheKey("weird|name", 7, "f"):             true,
		cacheKey("weird", 7, "name|f"):             true,
		cacheKey("", 0, ""):                        true,
		cacheKey("a", 12, "alg=fastod3"):           true,
		cacheKey("a", 123, "alg=fastod"):           true,
		cacheKey("a1", 23, "alg=fastod"):           true,
		cacheKey("x", 1, "thr=0x1p-04"):            true,
		cacheKey("x", 1, "thr=0x1p-03"):            true,
		cacheKey("x", 11, "thr=0x1p-04"):           true,
		cacheKey("x1", 1, "thr=0x1p-04"):           true,
		cacheKey("y", 1, "attrs=1,2"):              true,
		cacheKey("y", 1, "attrs=12"):               true,
		cacheKey("y", 1, "attrs=auto"):             true,
		cacheKey("y", 1, "attrs="):                 true,
		cacheKey("z", 1, strings.Repeat("f", 100)): true,
	}
	if len(keys) != 25 {
		t.Fatalf("coordinate collision: %d distinct keys, want 25", len(keys))
	}
}

func TestReportCacheConcurrentAccess(t *testing.T) {
	s := New(Config{ReportCacheBytes: replyCost("k10", testReply(5)) * 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%16)
				if resp, ok := s.cachedReply(key, fastod.Request{RunOptions: fastod.RunOptions{Workers: w + 1}}); ok && (resp.Workers != w+1 || !resp.Cached) {
					t.Errorf("hit for workers %d returned workers %d, cached %v", w+1, resp.Workers, resp.Cached)
					return
				}
				s.cacheReply(key, testReply(5))
			}
		}(w)
	}
	wg.Wait()
	if st := s.ReportCacheStats(); st.Cost > st.MaxCost {
		t.Errorf("cost %d exceeds bound %d after concurrent churn", st.Cost, st.MaxCost)
	}
}
