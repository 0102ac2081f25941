package main

import "testing"

// TestMoldynRuns executes the example in-process. main() calls log.Fatal,
// which fails the test, when the parallel force reduction loses momentum
// or the trajectory diverges from the sequential one.
func TestMoldynRuns(t *testing.T) { main() }
