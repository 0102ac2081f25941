// Package lint is the static-analysis subsystem for IRL programs: a typed
// diagnostics engine (stable codes, severities, source positions, human and
// JSON renderers) and a registry of analyzer passes over the IRL AST and
// the Section 4 analysis results.
//
// The paper's central claim is that legality is decided *before* the loop
// runs: phase assignment plus the Section 4 restrictions (associative and
// commutative updates only, a single level of indirection) guarantee
// race-free execution without a communicating inspector. This package makes
// those checks first-class and reusable — compiler drivers refuse to emit
// code on Error findings and tooling consumes the JSON form.
// inspector.CheckSet proves the schedules built for a legal loop can never
// produce a cross-processor write conflict.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"irred/internal/lang"
)

// Severity classifies a diagnostic. Error findings make a program illegal
// under the paper's restrictions (drivers refuse to generate code); Warn
// findings are legal but almost certainly unintended; Info findings report
// facts about how the compiler will treat the program.
type Severity int

const (
	Info Severity = iota
	Warn
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warn:
		return "warn"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the names produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = Error
	case "warn":
		*s = Warn
	case "info":
		*s = Info
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// Diagnostic is one finding: a stable IRLnnn code, a severity, a source
// position, and a message.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	File     string   `json:"file,omitempty"` // set by drivers linting named files
	Line     int      `json:"line,omitempty"`
	Col      int      `json:"col,omitempty"`
	Message  string   `json:"message"`
}

// Pos reports the source position of the diagnostic.
func (d Diagnostic) Pos() lang.Pos { return lang.Pos{Line: d.Line, Col: d.Col} }

// String renders the diagnostic in the repo's irl:line:col: style (the
// file name replaces "irl" when set); findings without a position drop the
// prefix.
func (d Diagnostic) String() string {
	name := d.File
	if name == "" {
		name = "irl"
	}
	if d.Line == 0 && d.Col == 0 {
		if d.File != "" {
			return fmt.Sprintf("%s: %s: %s [%s]", d.File, d.Severity, d.Message, d.Code)
		}
		return fmt.Sprintf("%s: %s [%s]", d.Severity, d.Message, d.Code)
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]", name, d.Line, d.Col, d.Severity, d.Message, d.Code)
}

// Diagnostics is a list of findings.
type Diagnostics []Diagnostic

// Sort orders findings by position, then severity (most severe first for
// ties at one position), then code, then message — a stable presentation
// order independent of analyzer registration order.
func (ds Diagnostics) Sort() {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// HasErrors reports whether any finding is Error-level.
func (ds Diagnostics) HasErrors() bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Codes reports the distinct diagnostic codes present, sorted.
func (ds Diagnostics) Codes() []string {
	set := map[string]bool{}
	for _, d := range ds {
		set[d.Code] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Render writes the human-readable form, one finding per line.
func (ds Diagnostics) Render(w io.Writer) error {
	for _, d := range ds {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// RenderString is Render into a string.
func (ds Diagnostics) RenderString() string {
	var b strings.Builder
	ds.Render(&b)
	return b.String()
}

// RenderJSON writes the findings as an indented JSON array (an empty list,
// not null, when there are no findings) so tooling gets a stable shape.
func (ds Diagnostics) RenderJSON(w io.Writer) error {
	out := ds
	if out == nil {
		out = Diagnostics{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
