// Package gen depends on shape, like a data generator the tests of shape use.
package gen

import "shape"

// Make returns a shape with the given rows.
func Make(rows int) *shape.Shape { return &shape.Shape{Rows: rows} }
