package fastod_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	fastod "repro"
)

// --- Request.Canonical / Request.Fingerprint: the report-cache key must ---
// --- identify exactly the knobs that can change a completed report.     ---

func TestFingerprintIgnoresExecutionKnobs(t *testing.T) {
	base := fastod.Request{Algorithm: fastod.AlgorithmFASTOD}
	for name, variant := range map[string]fastod.Request{
		"workers 1":      {Algorithm: fastod.AlgorithmFASTOD, RunOptions: fastod.RunOptions{Workers: 1}},
		"workers 8":      {Algorithm: fastod.AlgorithmFASTOD, RunOptions: fastod.RunOptions{Workers: 8}},
		"zero algorithm": {},
	} {
		if got, want := variant.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %q != base %q — execution knob leaked into the key", name, got, want)
		}
	}
}

func TestFingerprintSeparatesResultShapingKnobs(t *testing.T) {
	// Every request here asks a genuinely different question, so every
	// fingerprint must be distinct — a collision would silently serve one
	// request's report to another.
	requests := []fastod.Request{
		{},
		{Algorithm: fastod.AlgorithmTANE},
		{Algorithm: fastod.AlgorithmBidirectional},
		{Algorithm: fastod.AlgorithmORDER},
		{Algorithm: fastod.AlgorithmApprox},
		{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.05}},
		{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.1}},
		{Algorithm: fastod.AlgorithmConditional},
		{RunOptions: fastod.RunOptions{MaxLevel: 2}},
		{RunOptions: fastod.RunOptions{MaxLevel: 3}},
		{RunOptions: fastod.RunOptions{Budget: fastod.Budget{Timeout: time.Second}}},
		{RunOptions: fastod.RunOptions{Budget: fastod.Budget{Timeout: 2 * time.Second}}},
		{RunOptions: fastod.RunOptions{Budget: fastod.Budget{MaxNodes: 100}}},
		{RunOptions: fastod.RunOptions{Budget: fastod.Budget{MaxNodes: 200}}},
		{FASTOD: fastod.FASTODRunOptions{CountOnly: true}},
		{FASTOD: fastod.FASTODRunOptions{DisablePruning: true}},
		{FASTOD: fastod.FASTODRunOptions{CollectLevelStats: true}},
	}
	seen := make(map[string]int)
	for i, r := range requests {
		fp := r.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("requests %d and %d collide on fingerprint %q", j, i, fp)
		}
		seen[fp] = i
	}
}

func TestFingerprintConditionalAttrs(t *testing.T) {
	mk := func(attrs []int) fastod.Request {
		return fastod.Request{
			Algorithm:   fastod.AlgorithmConditional,
			Conditional: fastod.ConditionalRunOptions{ConditionAttrs: attrs},
		}
	}
	// Attribute order is irrelevant: the slices enumerated are a set.
	if mk([]int{2, 0, 1}).Fingerprint() != mk([]int{0, 1, 2}).Fingerprint() {
		t.Error("condition attr order changed the fingerprint")
	}
	// nil (auto-enumerate) and empty (no conditions) are different questions.
	if mk(nil).Fingerprint() == mk([]int{}).Fingerprint() {
		t.Error("nil and empty ConditionAttrs collide")
	}
	if fp := mk([]int{}).Fingerprint(); !strings.HasSuffix(fp, ";attrs=") {
		t.Errorf("empty ConditionAttrs fingerprint %q, want an empty attribute list", fp)
	}
	// With explicit attrs the cardinality bound is unread, so it must not
	// split the key; with nil attrs it steers enumeration, so it must.
	explicit := mk([]int{1})
	explicit.Conditional.MaxConditionCardinality = 99
	if explicit.Fingerprint() != mk([]int{1}).Fingerprint() {
		t.Error("unread MaxConditionCardinality split the key for explicit attrs")
	}
	auto := mk(nil)
	auto.Conditional.MaxConditionCardinality = 99
	if auto.Fingerprint() == mk(nil).Fingerprint() {
		t.Error("MaxConditionCardinality ignored for auto enumeration")
	}
}

func TestCanonicalErasesIrrelevantOptionBlocks(t *testing.T) {
	// Knobs belonging to algorithms the request does not run are unread, so
	// they must not split the cache key.
	r := fastod.Request{
		Algorithm:   fastod.AlgorithmTANE,
		FASTOD:      fastod.FASTODRunOptions{DisablePruning: true, CountOnly: true},
		Approx:      fastod.ApproxRunOptions{Threshold: 0.25},
		Conditional: fastod.ConditionalRunOptions{MinSliceRows: 7},
	}
	plain := fastod.Request{Algorithm: fastod.AlgorithmTANE}
	if r.Fingerprint() != plain.Fingerprint() {
		t.Errorf("irrelevant option blocks split the key:\n %q\n %q", r.Fingerprint(), plain.Fingerprint())
	}
	// CountOnly is forced off by the conditional runner, so it is unread
	// there too.
	cond := fastod.Request{Algorithm: fastod.AlgorithmConditional, FASTOD: fastod.FASTODRunOptions{CountOnly: true}}
	condPlain := fastod.Request{Algorithm: fastod.AlgorithmConditional}
	if cond.Fingerprint() != condPlain.Fingerprint() {
		t.Error("CountOnly split the key for a conditional run that never reads it")
	}
	// But DisablePruning does steer conditional passes.
	condPruned := fastod.Request{Algorithm: fastod.AlgorithmConditional, FASTOD: fastod.FASTODRunOptions{DisablePruning: true}}
	if condPruned.Fingerprint() == condPlain.Fingerprint() {
		t.Error("DisablePruning ignored for a conditional run that reads it")
	}
}

func TestCanonicalIsIdempotent(t *testing.T) {
	for _, r := range []fastod.Request{
		{},
		{Algorithm: fastod.AlgorithmApprox, Approx: fastod.ApproxRunOptions{Threshold: 0.1}, RunOptions: fastod.RunOptions{Workers: 4}},
		{Algorithm: fastod.AlgorithmConditional, Conditional: fastod.ConditionalRunOptions{ConditionAttrs: []int{3, 1}}},
	} {
		once := r.Canonical()
		if twice := once.Canonical(); twice.Fingerprint() != once.Fingerprint() {
			t.Errorf("Canonical not idempotent for %+v", r)
		}
	}
}

// --- Dataset version stamps: every dataset instance is a distinct cache ---
// --- generation.                                                        ---

func TestDatasetVersionStamps(t *testing.T) {
	ds := fastod.EmployeesExample()
	if ds.Version() == 0 {
		t.Fatal("fresh dataset has no version stamp")
	}
	if ds.Version() != ds.Version() {
		t.Fatal("Version not stable between reads")
	}

	// Derived views are new instances and must never share a stamp with the
	// parent — or with each other — so stale cache entries cannot be served
	// for a projection.
	proj := ds.Project(2)
	head := ds.HeadRows(3)
	stamps := map[uint64]string{ds.Version(): "parent"}
	for name, v := range map[string]uint64{"project": proj.Version(), "head": head.Version()} {
		if prev, taken := stamps[v]; taken {
			t.Errorf("%s shares version stamp %d with %s", name, v, prev)
		}
		stamps[v] = name
	}
}

// --- OrderSpecs in the fingerprint: every distinct canonical spec is a ---
// --- distinct cache key, and only canonical content reaches the key.   ---

func TestFingerprintSeparatesOrderSpecs(t *testing.T) {
	mk := func(orders ...fastod.AttrOrder) fastod.Request {
		return fastod.Request{RunOptions: fastod.RunOptions{OrderSpecs: orders}}
	}
	distinct := []fastod.Request{
		mk(),
		mk(fastod.AttrOrder{Column: "a", Direction: fastod.OrderDesc}),
		mk(fastod.AttrOrder{Column: "a", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast}),
		mk(fastod.AttrOrder{Column: "a", Nulls: fastod.NullsLast}),
		mk(fastod.AttrOrder{Column: "b", Direction: fastod.OrderDesc}),
		mk(fastod.AttrOrder{Column: "a", Collation: fastod.CollateNumeric}),
		mk(fastod.AttrOrder{Column: "a", Collation: fastod.CollateCaseInsen}),
		mk(fastod.AttrOrder{Column: "a", Collation: fastod.CollateRank, Ranks: []string{"x", "y"}}),
		mk(fastod.AttrOrder{Column: "a", Collation: fastod.CollateRank, Ranks: []string{"y", "x"}}),
		mk(fastod.AttrOrder{Column: "a", Direction: fastod.OrderDesc},
			fastod.AttrOrder{Column: "b", Direction: fastod.OrderDesc}),
	}
	seen := make(map[string]int)
	for i, r := range distinct {
		fp := r.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("specs %d and %d collide on fingerprint %q", j, i, fp)
		}
		seen[fp] = i
	}
}

func TestFingerprintCanonicalizesOrderSpecs(t *testing.T) {
	desc := fastod.AttrOrder{Column: "a", Direction: fastod.OrderDesc}
	descB := fastod.AttrOrder{Column: "b", Direction: fastod.OrderDesc}
	noop := fastod.AttrOrder{Column: "z"} // fully default: canonically erased
	mk := func(orders ...fastod.AttrOrder) fastod.Request {
		return fastod.Request{RunOptions: fastod.RunOptions{OrderSpecs: orders}}
	}
	// Listing order is presentation; default entries are no-ops; an all-default
	// list is the default question.
	if mk(desc, descB).Fingerprint() != mk(descB, desc).Fingerprint() {
		t.Error("spec listing order changed the fingerprint")
	}
	if mk(desc, noop).Fingerprint() != mk(desc).Fingerprint() {
		t.Error("a fully-default spec entry changed the fingerprint")
	}
	if mk(noop).Fingerprint() != mk().Fingerprint() {
		t.Error("an all-default spec list differs from no spec list")
	}
	// Pre-OrderSpec fingerprints are unchanged: the suffix appears only when a
	// canonical spec survives.
	if got := mk().Fingerprint(); strings.Contains(got, "ord=") {
		t.Errorf("default fingerprint %q mentions order specs", got)
	}
	if got := mk(desc).Fingerprint(); !strings.Contains(got, "ord=") {
		t.Errorf("spec fingerprint %q does not mention order specs", got)
	}
}

// TestFingerprintOrderSpecGolden pins the rendering of order specs in the
// fingerprint, ranks included: entries sorted by column, each
// `;ord="col":direction,nulls,collation` and then its quoted ranks. A change
// here re-keys every cached report that has an order spec.
func TestFingerprintOrderSpecGolden(t *testing.T) {
	r := fastod.Request{Algorithm: fastod.AlgorithmApprox, RunOptions: fastod.RunOptions{OrderSpecs: []fastod.AttrOrder{
		{Column: "grade", Direction: fastod.OrderDesc, Nulls: fastod.NullsLast, Collation: fastod.CollateRank,
			Ranks: []string{"low", "mid,high", `top "1"`}},
		{Column: "a;b", Collation: fastod.CollateCaseInsen},
	}}}
	const want = `alg=approx;lvl=0;to=0;nodes=0;thr=0x0p+00;ord="a;b":0,0,4;ord="grade":1,1,5,"low","mid,high","top \"1\""`
	if got := r.Fingerprint(); got != want {
		t.Errorf("fingerprint = %s\nwant          %s", got, want)
	}
}

func TestValidateRejectsBadOrderSpecs(t *testing.T) {
	for name, req := range map[string]fastod.Request{
		"empty column": {RunOptions: fastod.RunOptions{OrderSpecs: []fastod.AttrOrder{{}}}},
		"duplicate column": {RunOptions: fastod.RunOptions{OrderSpecs: []fastod.AttrOrder{
			{Column: "a", Direction: fastod.OrderDesc}, {Column: "a", Nulls: fastod.NullsLast}}}},
		"ranks without rank collation": {RunOptions: fastod.RunOptions{OrderSpecs: []fastod.AttrOrder{
			{Column: "a", Ranks: []string{"x"}}}}},
		"rank collation without ranks": {RunOptions: fastod.RunOptions{OrderSpecs: []fastod.AttrOrder{
			{Column: "a", Collation: fastod.CollateRank}}}},
	} {
		if err := req.Validate(); !errors.Is(err, fastod.ErrInvalidRequest) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidRequest", name, err)
		}
	}
}

func TestSpecEncodingCache(t *testing.T) {
	ds := fastod.SyntheticFlight(120, 5, 7)
	if n, b := ds.SpecEncodingCacheStats(); n != 0 || b != 0 {
		t.Fatalf("fresh dataset spec cache = %d entries, %d bytes", n, b)
	}
	desc := []fastod.AttrOrder{{Column: "flight_sk", Direction: fastod.OrderDesc}}
	enc1, err := ds.SpecEncoded(desc)
	if err != nil {
		t.Fatalf("SpecEncoded: %v", err)
	}
	enc2, err := ds.SpecEncoded(desc)
	if err != nil {
		t.Fatalf("SpecEncoded (repeat): %v", err)
	}
	if enc1 != enc2 {
		t.Error("repeat SpecEncoded did not return the cached instance")
	}
	if n, b := ds.SpecEncodingCacheStats(); n != 1 || b <= 0 {
		t.Errorf("spec cache after one spec = %d entries, %d bytes, want 1 entry with positive cost", n, b)
	}
	// A second spec is a second entry; the default spec never occupies one.
	if _, err := ds.SpecEncoded([]fastod.AttrOrder{{Column: "year", Nulls: fastod.NullsLast}}); err != nil {
		t.Fatalf("SpecEncoded (second spec): %v", err)
	}
	def1, err := ds.SpecEncoded(nil)
	if err != nil {
		t.Fatalf("SpecEncoded(nil): %v", err)
	}
	def2, err := ds.SpecEncoded([]fastod.AttrOrder{{Column: "year"}}) // all-default list
	if err != nil {
		t.Fatalf("SpecEncoded(all-default): %v", err)
	}
	if def1 != def2 {
		t.Error("default-spec variants did not share the dataset's own encoding")
	}
	if n, _ := ds.SpecEncodingCacheStats(); n != 2 {
		t.Errorf("spec cache = %d entries, want 2", n)
	}
	if _, err := ds.SpecEncoded([]fastod.AttrOrder{{Column: "ghost", Direction: fastod.OrderDesc}}); !errors.Is(err, fastod.ErrInvalidRequest) {
		t.Errorf("unknown column error = %v, want ErrInvalidRequest", err)
	}
}
