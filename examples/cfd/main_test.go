package main

import "testing"

// TestCFDRuns executes the example in-process. main() compares the
// native 8-way euler run with the sequential solver and calls log.Fatal,
// which fails the test, when they diverge.
func TestCFDRuns(t *testing.T) { main() }
