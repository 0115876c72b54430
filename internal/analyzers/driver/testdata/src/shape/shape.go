// Package shape is the package under test of the driver's test-variant
// fixture.
package shape

// Shape is a value the external test receives from gen and hands back.
type Shape struct{ Rows int }

// Area reports the shape's size.
func Area(s *Shape) int { return s.Rows }
