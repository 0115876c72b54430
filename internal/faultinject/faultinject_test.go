package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestFireWithoutPlanIsNoop(t *testing.T) {
	if Enabled() {
		t.Fatal("no plan armed, Enabled() = true")
	}
	if err := Fire(PartitionProduct); err != nil {
		t.Fatalf("Fire with no plan: %v", err)
	}
	Hit(NodeDispatch) // must not panic
}

func TestErrorRuleFiresOnSchedule(t *testing.T) {
	p := NewPlan(Rule{Point: StoreGet, Action: ActionError, After: 2, Times: 1})
	defer Enable(p)()

	for i := 1; i <= 2; i++ {
		if err := Fire(StoreGet); err != nil {
			t.Fatalf("hit %d fired early: %v", i, err)
		}
	}
	err := Fire(StoreGet)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("hit 3 = %v, want ErrInjected", err)
	}
	if err := Fire(StoreGet); err != nil {
		t.Fatalf("Times=1 rule fired twice: %v", err)
	}
	if got := p.Hits(StoreGet); got != 4 {
		t.Fatalf("Hits = %d, want 4", got)
	}
	if got := p.Fired(); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
	// Other points are untouched by the plan.
	if err := Fire(StoreEvict); err != nil {
		t.Fatalf("unrelated point fired: %v", err)
	}
}

func TestTimesZeroFiresForever(t *testing.T) {
	p := NewPlan(Rule{Point: CSVDecode, Action: ActionError, After: 1})
	defer Enable(p)()

	if err := Fire(CSVDecode); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	for i := 2; i <= 5; i++ {
		if err := Fire(CSVDecode); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d = %v, want ErrInjected", i, err)
		}
	}
}

func TestPanicRule(t *testing.T) {
	defer Enable(NewPlan(Rule{Point: NodeDispatch, Action: ActionPanic, Times: 1}))()

	defer func() {
		rec := recover()
		pk, ok := rec.(*Panicked)
		if !ok {
			t.Fatalf("recovered %v (%T), want *Panicked", rec, rec)
		}
		if pk.Point != NodeDispatch || pk.Hit != 1 {
			t.Fatalf("Panicked = %+v", pk)
		}
	}()
	Hit(NodeDispatch)
	t.Fatal("Hit did not panic")
}

func TestDelayRule(t *testing.T) {
	defer Enable(NewPlan(Rule{Point: SSEWrite, Action: ActionDelay, Delay: 10 * time.Millisecond, Times: 1}))()

	start := time.Now()
	if err := Fire(SSEWrite); err != nil {
		t.Fatalf("delay rule returned error: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("Fire returned after %v, want >= 10ms", d)
	}
}

func TestEnableRejectsOverlap(t *testing.T) {
	disarm := Enable(NewPlan())
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping Enable did not panic")
		}
		disarm()
	}()
	Enable(NewPlan())
}

func TestDisarmRestoresFastPath(t *testing.T) {
	Enable(NewPlan(Rule{Point: StoreGet, Action: ActionError}))()
	if Enabled() {
		t.Fatal("disarmed plan still enabled")
	}
	if err := Fire(StoreGet); err != nil {
		t.Fatalf("Fire after disarm: %v", err)
	}
}

func TestSeededIsDeterministic(t *testing.T) {
	a := Seeded(42, PartitionProduct, ActionPanic, 10, 0)
	b := Seeded(42, PartitionProduct, ActionPanic, 10, 0)
	if len(a.rules[PartitionProduct]) != 1 || len(b.rules[PartitionProduct]) != 1 {
		t.Fatalf("Seeded rules: %v / %v", a.rules, b.rules)
	}
	ra, rb := a.rules[PartitionProduct][0], b.rules[PartitionProduct][0]
	if ra != rb {
		t.Fatalf("same seed produced different rules: %+v vs %+v", ra, rb)
	}
	if ra.After < 0 || ra.After > 10 {
		t.Fatalf("After = %d, want in [0, 10]", ra.After)
	}
	if c := Seeded(43, PartitionProduct, ActionPanic, 1<<20, 0); c.rules[PartitionProduct][0] == ra {
		// Not strictly impossible, but with maxAfter 2^20 a collision means
		// the seed is being ignored.
		t.Fatalf("different seeds produced identical rules: %+v", ra)
	}
}
