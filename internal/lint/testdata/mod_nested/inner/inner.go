// Package inner lives in a module nested under nestfix; odblint ./...
// run from the outer module must reach it.
package inner

// Half compares floats with ==.
func Half(x float64) bool { return x == 0.5 }
