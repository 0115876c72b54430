package shape_test

import (
	"gen"
	"shape"
)

var _ = shape.Area(gen.Make(3))
