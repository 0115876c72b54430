package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

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

func TestDiscoverCacheHitReplaysByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()

	body := `{"algorithm":"fastod"}`
	_, first := discoverRaw(t, ts.URL, "emp", body)
	_, second := discoverRaw(t, ts.URL, "emp", body)
	_, third := discoverRaw(t, ts.URL, "emp", body)

	var miss, hit DiscoverResponse
	if err := json.Unmarshal(first, &miss); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &hit); err != nil {
		t.Fatal(err)
	}
	if miss.Cached {
		t.Error("first request reported cached")
	}
	if !hit.Cached {
		t.Fatal("second identical request not served from the cache")
	}
	// Replays of the same stored report are byte-identical, and a hit differs
	// from its miss only by the cached marker: the stored report carries the
	// original run's stats and elapsed time.
	if !bytes.Equal(second, third) {
		t.Errorf("two cache hits differ:\n %s\n %s", second, third)
	}
	normalized := bytes.Replace(first, []byte(`"cached":false`), []byte(`"cached":true`), 1)
	if !bytes.Equal(normalized, second) {
		t.Errorf("hit is not a replay of the miss:\n %s\n %s", normalized, second)
	}

	st := s.ReportCacheStats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 2 hits, 1 miss, 1 entry", st)
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

func TestHealthzReportsCacheStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()
	discoverRaw(t, ts.URL, "emp", ``)
	discoverRaw(t, ts.URL, "emp", ``)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", health.Status)
	}
	rc := health.ReportCache
	if rc.Hits != 1 || rc.Misses != 1 || rc.Entries != 1 {
		t.Errorf("healthz report_cache = %+v, want 1 hit, 1 miss, 1 entry", rc)
	}
	if rc.CostBytes <= 0 || rc.MaxCostBytes != DefaultReportCacheBytes {
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
