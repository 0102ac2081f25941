package main

import "testing"

// TestCGRuns executes the example in-process: conjugate gradient with
// its matvec on a Native driven through the per-iteration Consume. main()
// calls log.Fatal, which fails the test, when the parallel solve diverges
// from the sequential one.
func TestCGRuns(t *testing.T) { main() }
