package server

import (
	"fmt"
	"math"
	"time"

	fastod "repro"
)

// The wire types of the service: a JSON mirror of fastod.Request on the way
// in, and a flattened view of fastod.Report on the way out. Dependencies
// travel as their textual form, the lines the fastod CLI prints
// (fastod.Report.Dependencies), rather than as index-level structs: the
// server knows the column names, the client usually does not. Canonical and
// list ODs are in the syntax internal/odparse parses; TANE's "{yr} -> bin"
// and bidir's "(opposite)" suffix are not.

// DiscoverRequest is the JSON mirror of fastod.Request. The per-request
// deadline travels as timeout_ms and is mapped onto both Budget.Timeout and
// the run's context; max_nodes bounds visited lattice nodes. Absent fields
// take the library defaults, and both budget knobs are clamped to the
// server-side cap (see Config.MaxBudget) before the run starts.
type DiscoverRequest struct {
	Algorithm string `json:"algorithm,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	MaxLevel  int    `json:"max_level,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	MaxNodes  int    `json:"max_nodes,omitempty"`

	// OrderSpecs override per-column ordering semantics for the run. The
	// entries become Request.OrderSpecs and therefore part of the report-cache
	// key: two requests differing only here never share a cached report.
	OrderSpecs []OrderSpecJSON `json:"order_specs,omitempty"`

	FASTOD      *FASTODOptions      `json:"fastod,omitempty"`
	Approx      *ApproxOptions      `json:"approx,omitempty"`
	Conditional *ConditionalOptions `json:"conditional,omitempty"`
}

// OrderSpecJSON is the wire form of one fastod.AttrOrder. The enums travel as
// their textual spellings ("asc"/"desc", "first"/"last", "lexicographic",
// "numeric", "date", "case-insensitive", "rank"; case-insensitive, empty =
// default); Ranks carries the value list of the rank collation, lowest first.
type OrderSpecJSON struct {
	Column    string   `json:"column"`
	Direction string   `json:"direction,omitempty"`
	Nulls     string   `json:"nulls,omitempty"`
	Collation string   `json:"collation,omitempty"`
	Ranks     []string `json:"ranks,omitempty"`
}

// toAttrOrder parses the textual enum spellings. Failures are client errors:
// the caller maps them onto HTTP 400.
func (o OrderSpecJSON) toAttrOrder() (fastod.AttrOrder, error) {
	dir, err := fastod.ParseOrderDirection(o.Direction)
	if err != nil {
		return fastod.AttrOrder{}, fmt.Errorf("order_specs entry %q: %w", o.Column, err)
	}
	nulls, err := fastod.ParseNullOrder(o.Nulls)
	if err != nil {
		return fastod.AttrOrder{}, fmt.Errorf("order_specs entry %q: %w", o.Column, err)
	}
	coll, err := fastod.ParseCollation(o.Collation)
	if err != nil {
		return fastod.AttrOrder{}, fmt.Errorf("order_specs entry %q: %w", o.Column, err)
	}
	return fastod.AttrOrder{
		Column:    o.Column,
		Direction: dir,
		Nulls:     nulls,
		Collation: coll,
		Ranks:     o.Ranks,
	}, nil
}

// The option blocks of a request are the library's own types, tagged with
// their wire names where they are declared.
type (
	// FASTODOptions is the "fastod" block: fastod.FASTODRunOptions.
	FASTODOptions = fastod.FASTODRunOptions
	// ApproxOptions is the "approx" block: fastod.ApproxRunOptions.
	ApproxOptions = fastod.ApproxRunOptions
	// ConditionalOptions is the "conditional" block:
	// fastod.ConditionalRunOptions.
	ConditionalOptions = fastod.ConditionalRunOptions
)

// toRequest maps the wire request onto the library envelope. The only
// validation here is parsing the textual order-spec enums (the mapping cannot
// exist without it); everything else is Request.Validate's, so invalid values
// (negative workers, out-of-range thresholds) surface as typed 400s, not
// decode quirks.
func (q DiscoverRequest) toRequest() (fastod.Request, error) {
	req := fastod.Request{
		Algorithm: fastod.Algorithm(q.Algorithm),
		RunOptions: fastod.RunOptions{
			Workers:  q.Workers,
			MaxLevel: q.MaxLevel,
			Budget: fastod.Budget{
				Timeout:  millis(q.TimeoutMS),
				MaxNodes: q.MaxNodes,
			},
		},
	}
	for _, o := range q.OrderSpecs {
		ao, err := o.toAttrOrder()
		if err != nil {
			return fastod.Request{}, err
		}
		req.OrderSpecs = append(req.OrderSpecs, ao)
	}
	if q.FASTOD != nil {
		req.FASTOD = *q.FASTOD
	}
	if q.Approx != nil {
		req.Approx = *q.Approx
	}
	if q.Conditional != nil {
		req.Conditional = *q.Conditional
	}
	return req, nil
}

// millis converts wire milliseconds to a Duration, saturating at the
// Duration range instead of wrapping around it: a timeout past the range
// then becomes the server cap through capBudget, and a negative one stays
// negative for validation to reject.
func millis(ms int64) time.Duration {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	switch {
	case ms > limit:
		return math.MaxInt64
	case ms < -limit:
		return math.MinInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// ColumnInfo is the per-column schema entry of DatasetInfo: the sniffed (or
// declared) type that drives the default collation, and the default order the
// column is encoded under — what an order_specs entry would override.
type ColumnInfo struct {
	Name         string `json:"name"`
	Type         string `json:"type"`
	DefaultOrder string `json:"default_order"`
}

// DatasetInfo describes one resident dataset. Schema is returned both by the
// upload response and GET /v1/datasets/{name}, so clients can inspect the
// sniffed types before choosing order_specs overrides.
type DatasetInfo struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Columns []string     `json:"columns"`
	Schema  []ColumnInfo `json:"schema"`
}

func datasetInfo(name string, ds *fastod.Dataset) DatasetInfo {
	names, types := ds.ColumnNames(), ds.ColumnTypes()
	schema := make([]ColumnInfo, len(names))
	for i, n := range names {
		schema[i] = ColumnInfo{Name: n, Type: types[i], DefaultOrder: "asc nulls first"}
	}
	return DatasetInfo{Name: name, Rows: ds.NumRows(), Columns: names, Schema: schema}
}

// DatasetList is the response of GET /v1/datasets.
type DatasetList struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// BudgetInfo reports the budget a run was actually subject to, after the
// server-side cap.
type BudgetInfo struct {
	TimeoutMS int64 `json:"timeout_ms"`
	MaxNodes  int   `json:"max_nodes"`
}

// StatsInfo is a reply's "stats": fastod.RunStats, whose interrupted flag
// the reply carries at its top level instead.
type StatsInfo = fastod.RunStats

// Dependency is one discovered dependency rendered over column names; see
// fastod.Dependency.
type Dependency = fastod.Dependency

// DiscoverResponse is the response of the discover endpoints: the effective
// run parameters (workers after resolution, budget after the cap), the
// interrupted flag of the partial-result contract, unified stats, and the
// dependencies rendered over the dataset's column names.
type DiscoverResponse struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	// Workers is the effective worker count of the run (after resolving the
	// requested value; 0 selects all CPUs), not the raw request value.
	Workers int        `json:"workers"`
	Budget  BudgetInfo `json:"budget"`
	// Interrupted reports the run was cut short by its budget or deadline;
	// Dependencies then hold everything discovered before the interrupt.
	Interrupted bool `json:"interrupted"`
	// Cached reports the response was served from the report cache: no run
	// happened, and ElapsedMS/Stats describe the original cached run. Always
	// present (not omitempty) so clients and smoke tests can assert both
	// polarities.
	Cached    bool      `json:"cached"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Stats     StatsInfo `json:"stats"`
	// Counts is fastod.Report.Counts, the canonical tally; bidir and
	// conditional replies have none.
	Counts *fastod.Count `json:"counts,omitempty"`
	// Count is fastod.Report.Found, what the run found in the algorithm's
	// own unit: len(Dependencies), except in count-only mode.
	Count        int          `json:"count"`
	Dependencies []Dependency `json:"dependencies"`
	// SlicesExamined counts processed condition slices (conditional only).
	SlicesExamined int `json:"slices_examined,omitempty"`
}

// ProgressEvent is the SSE form of fastod.ProgressEvent. Slice marks the
// per-condition-slice events of conditional runs (their Level is the
// SliceProgressLevel sentinel, not a lattice level); such events also carry
// the condition that defined the slice — attribute index, encoded value rank
// and selected row count — so stream consumers can show which binding is
// being processed, not just that one finished.
type ProgressEvent struct {
	Level            int     `json:"level"`
	Slice            bool    `json:"slice,omitempty"`
	ConditionAttr    *int    `json:"condition_attr,omitempty"`
	ConditionValue   *int32  `json:"condition_value,omitempty"`
	SliceRows        int     `json:"slice_rows,omitempty"`
	Nodes            int     `json:"nodes"`
	NodesVisited     int     `json:"nodes_visited"`
	PartitionsCached int     `json:"partitions_cached"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

func progressEvent(ev fastod.ProgressEvent) ProgressEvent {
	out := ProgressEvent{
		Level:            ev.Level,
		Slice:            ev.Level == fastod.SliceProgressLevel,
		Nodes:            ev.Nodes,
		NodesVisited:     ev.NodesVisited,
		PartitionsCached: ev.PartitionsCached,
		ElapsedMS:        ms(ev.Elapsed),
	}
	if ev.Slice != nil {
		// Pointers rather than omitempty values: attribute 0 and value rank 0
		// are legitimate conditions that must not vanish from the wire.
		attr, value := ev.Slice.Attr, ev.Slice.Value
		out.ConditionAttr = &attr
		out.ConditionValue = &value
		out.SliceRows = ev.Slice.Rows
	}
	return out
}

// RuntimeInfo is the process-health slice of /healthz: live goroutine and
// heap gauges next to the counters that record how often the server has had
// to contain a failure (internal_errors) or shed load (shed_requests).
type RuntimeInfo struct {
	Goroutines     int    `json:"goroutines"`
	HeapBytes      uint64 `json:"heap_bytes"`
	HeapLimitBytes uint64 `json:"heap_limit_bytes,omitempty"`
	InternalErrors int64  `json:"internal_errors"`
	ShedRequests   int64  `json:"shed_requests"`
}

// HealthResponse is the response of GET /healthz. Status is "ok" normally and
// "degraded" while the heap sits over the soft memory limit (new discover
// requests are then shed with 503).
type HealthResponse struct {
	Status      string      `json:"status"`
	ReportCache CacheStats  `json:"report_cache"`
	Runtime     RuntimeInfo `json:"runtime"`
}

// errorBody is the uniform JSON error envelope. RequestID is set on
// internal-error responses so a client report can be correlated with the
// server-side log line that carries the recovered stack.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// discoverResponse flattens a Report into the wire response: its counts and
// its dependencies rendered over the dataset's column names. It renders a
// run's reply, so Cached is false; a report-cache hit copies the reply and
// sets it.
func discoverResponse(dataset string, req fastod.Request, rep *fastod.Report, names []string) *DiscoverResponse {
	resp := &DiscoverResponse{
		Dataset:   dataset,
		Algorithm: string(rep.Algorithm),
		Workers:   req.EffectiveWorkers(),
		Budget: BudgetInfo{
			TimeoutMS: req.Budget.Timeout.Milliseconds(),
			MaxNodes:  req.Budget.MaxNodes,
		},
		Interrupted:  rep.Interrupted,
		ElapsedMS:    ms(rep.Elapsed),
		Stats:        rep.Stats,
		Count:        rep.Found,
		Dependencies: rep.Dependencies(names),
	}
	if rep.Counts != nil {
		// A copy: Counts points into the payload, which a cached reply must
		// not keep alive.
		counts := *rep.Counts
		resp.Counts = &counts
	}
	if rep.Conditional != nil {
		resp.SlicesExamined = rep.Conditional.SlicesExamined
	}
	return resp
}
