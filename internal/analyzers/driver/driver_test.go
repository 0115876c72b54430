package driver_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/driver"
)

// An external test package may pass a value it got from a package that
// depends on the package under test (shape_test hands gen's *shape.Shape to
// shape.Area). The driver must check both against one variant of shape.
func TestExternalTestSeesOneVariant(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driver.Run(driver.Options{Dir: root, Patterns: []string{"shape"}, Tests: true}, []*analysis.Analyzer{}); err != nil {
		t.Fatalf("loading shape with its tests: %v", err)
	}
}
