package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestQuickstartRuns executes the example in-process, capturing stdout.
// It guards the library surface the README points newcomers at: if
// rts.Loop, Loop.Schedules, rts.NewNativeFrom, Native.Run, rts.RunSim or
// rts.RunSequentialSim change shape, this fails at compile time; if the
// worked example stops verifying against the sequential loop, main() calls
// log.Fatal and the test dies with it.
func TestQuickstartRuns(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outc := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		outc <- buf.String()
	}()

	main()

	w.Close()
	os.Stdout = old
	out := <-outc

	for _, want := range []string{
		"processor 0:",
		"processor 1:",
		"native result matches the sequential reduction",
		"simulated on EARTH",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

// TestReadmeSnippetIsAnExcerpt: the README's first Go block is this
// example with lines left out, so it cannot drift from code that compiles
// and runs. Each of its non-blank lines, leading whitespace aside, is a
// line of main.go, in main.go's order.
func TestReadmeSnippetIsAnExcerpt(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "\n```go\n")
	if !ok {
		t.Fatal("README has no ```go block")
	}
	block, _, ok = strings.Cut(block, "\n```")
	if !ok {
		t.Fatal("README's ```go block is not closed")
	}
	lines := strings.Split(string(src), "\n")
	next := 0
	for _, want := range strings.Split(block, "\n") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		for next < len(lines) && strings.TrimSpace(lines[next]) != want {
			next++
		}
		if next == len(lines) {
			t.Fatalf("README quickstart line %q is not in main.go after the lines before it", want)
		}
		next++
	}
}
