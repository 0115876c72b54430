package shape

// An in-package test file makes the external test see a test-augmented
// variant of shape, distinct from the one gen was first checked against.
var testOnly = Shape{Rows: 1}
