package nestfix

// onPlan9 is compiled only for GOOS=plan9, so the go command leaves
// this file out of the package everywhere else, and so must odblint.
func onPlan9(x float64) bool { return x == 0.5 }
