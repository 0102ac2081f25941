package main

import "testing"

// TestAdaptiveRuns executes the example in-process: re-inspection after
// motion, the incremental LightInspector and a streaming session. main()
// re-verifies every schedule invariant after the incremental update and
// calls log.Fatal on a violation or any error, which fails the test.
func TestAdaptiveRuns(t *testing.T) { main() }
