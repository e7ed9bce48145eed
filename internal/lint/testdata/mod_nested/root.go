// Package nestfix is the outer module of a module tree: odblint ./...
// lints it together with the module nested in inner/.
package nestfix

// Double is clean.
func Double(x float64) float64 { return x * 2 }
