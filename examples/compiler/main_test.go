package main

import "testing"

// TestCompilerRuns executes the example in-process: lint, compile and run
// an IRL program on the phase runtime through a per-iteration Contribs.
// main() calls log.Fatal, which fails the test, when a compiled array
// diverges from the interpreter's.
func TestCompilerRuns(t *testing.T) { main() }
