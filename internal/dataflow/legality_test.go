package dataflow

import (
	"strings"
	"testing"

	"irred/internal/algebra"
	"irred/internal/lang"
)

func legalize(t *testing.T, src string) []*License {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lics := LegalizeProgram(prog, Options{})
	for _, lic := range lics {
		if err := lic.Verify(); err != nil {
			t.Fatalf("ledger self-check: %v\n%s", err, lic.Report())
		}
	}
	return lics
}

const addLoop = `
param n, m
array ia[n] int
array x[m]
array w[n]
loop i = 0, n {
    x[ia[i]] += w[i]
}
`

func TestLicenseBuiltinAdd(t *testing.T) {
	lic := legalize(t, addLoop)[0]
	if lic.Level() != "TileLegal" {
		t.Fatalf("level = %s, want TileLegal\n%s", lic.Level(), lic.Report())
	}
	if !lic.Rotation || !lic.Tile {
		t.Fatalf("grants: %+v", lic)
	}
	if !lic.ReorderSensitive {
		t.Fatalf("float add must be reorder-sensitive")
	}
	if len(lic.Ops) != 1 || lic.Ops[0].Op.Kind != algebra.Add {
		t.Fatalf("ops: %+v", lic.Ops)
	}
}

func TestLicenseMinFold(t *testing.T) {
	lic := legalize(t, `
param n, m
array e[n] int
array best[m]
array w[n]
loop i = 0, n {
    best[e[i]] min= w[i]
}
`)[0]
	if lic.Level() != "TileLegal" {
		t.Fatalf("level = %s\n%s", lic.Level(), lic.Report())
	}
	if lic.ReorderSensitive {
		t.Fatalf("min is IEEE-exact; must not be reorder-sensitive")
	}
	if lic.Ops[0].Props.Idem != algebra.Proven {
		t.Fatalf("min must be idempotent: %+v", lic.Ops[0].Props)
	}
	// best is never pre-written and min's identity is +inf: IRL019 domain.
	if !lic.Ops[0].IdentSuspect {
		t.Fatalf("expected IdentSuspect for unseeded min reduction")
	}
}

func TestLicenseIdentSuspectClearedByInit(t *testing.T) {
	lic := legalize(t, `
param n, m
array e[n] int
array best[m]
array w[n]
loop j = 0, m {
    best[j] = 1000000
}
loop i = 0, n {
    best[e[i]] min= w[i]
}
`)[1]
	if lic.Ops[0].IdentSuspect {
		t.Fatalf("init loop writes best; IdentSuspect must be clear")
	}
}

func TestLicenseGeneralUpdate(t *testing.T) {
	lic := legalize(t, `
param n, m
array ia[n] int
array x[m]
array w[n]
loop i = 0, n {
    x[ia[i]] = x[ia[i]] * w[i] + x[ia[i]] + w[i]
}
`)[0]
	if lic.Level() != "TileLegal" {
		t.Fatalf("a*b+a+b: level = %s\n%s", lic.Level(), lic.Report())
	}
	ol := lic.Ops[0]
	if ol.Op.Kind != algebra.Custom {
		t.Fatalf("kind = %v", ol.Op.Kind)
	}
	if id, ok := ol.Op.Identity(); !ok || id != 0 {
		t.Fatalf("identity = %g/%v, want 0", id, ok)
	}
	if !strings.Contains(ol.Props.Proof, "polynomial identity") {
		t.Fatalf("degree-2 combine deserves a polynomial proof, got %q", ol.Props.Proof)
	}
}

func TestLicenseNonAssociativeRefused(t *testing.T) {
	lic := legalize(t, `
param n, m
array ia[n] int
array x[m]
array w[n]
loop i = 0, n {
    x[ia[i]] = x[ia[i]] * 0.5 + w[i]
}
`)[0]
	if lic.Level() != "Illegal" {
		t.Fatalf("a*0.5+b: level = %s\n%s", lic.Level(), lic.Report())
	}
	if lic.Rotation || lic.Tile {
		t.Fatalf("grants leaked: %+v", lic)
	}
	if len(lic.Refusals) == 0 || lic.Refusals[0].Cex == "" {
		t.Fatalf("expected a refusal with counterexample: %+v", lic.Refusals)
	}
}

func TestLicenseConflictingWrite(t *testing.T) {
	lic := legalize(t, `
param n, m
array ja[n] int
array z[m]
array w[n]
loop i = 0, n {
    z[ja[i]] = w[i]
}
`)[0]
	if !lic.Conflicting || lic.Level() != "Illegal" {
		t.Fatalf("overwrite: %s\n%s", lic.Level(), lic.Report())
	}
	if len(lic.Conflicts) != 1 {
		t.Fatalf("conflicts: %+v", lic.Conflicts)
	}
}

func TestLicenseOrderedDependence(t *testing.T) {
	// x[i+1] = x[i] is a loop-carried flow dependence: no schedule.
	lic := legalize(t, `
param n
array x[n]
loop i = 0, n {
    x[i + 1] = x[i]
}
`)[0]
	if lic.Rotation || lic.Tile {
		t.Fatalf("ordered dependence must refuse parallel schedules\n%s", lic.Report())
	}
	if lic.Level() != "Illegal" {
		t.Fatalf("level = %s", lic.Level())
	}
}

func TestLicenseIterationLocal(t *testing.T) {
	lic := legalize(t, `
param n
array x[n]
array y[n]
loop i = 0, n {
    x[i] = y[i] * 2
}
`)[0]
	if lic.Level() != "IterationLocal" {
		t.Fatalf("level = %s\n%s", lic.Level(), lic.Report())
	}
}

func TestLicenseMixedOpsConflict(t *testing.T) {
	lic := legalize(t, `
param n, m
array ia[n] int
array x[m]
array w[n]
loop i = 0, n {
    x[ia[i]] += w[i]
    x[ia[i]] *= w[i]
}
`)[0]
	if !lic.Conflicting {
		t.Fatalf("mixed += and *= on one array must conflict\n%s", lic.Report())
	}
}

func TestLicenseMeet(t *testing.T) {
	full := legalize(t, addLoop)[0]
	none := legalize(t, `
param n, m
array ja[n] int
array z[m]
array w[n]
loop i = 0, n {
    z[ja[i]] = w[i]
}
`)[0]
	met := Meet(none, full)
	if met.Rotation || met.Tile || !met.Conflicting {
		t.Fatalf("Meet must not widen: %+v", met)
	}
	if Meet(nil, full) != full {
		t.Fatalf("nil parent must pass through")
	}
	same := Meet(full, full)
	if !same.Rotation || !same.Tile || same.Conflicting {
		t.Fatalf("Meet with equal parent lost grants: %+v", same)
	}
}

func TestLicenseReportMentionsLedger(t *testing.T) {
	lic := legalize(t, addLoop)[0]
	rep := lic.Report()
	// The grant line and the ledger's grant note name exactly the two
	// grants a license carries, and TileLegal is the top of the lattice.
	for _, want := range []string{
		"schedule license TileLegal\n",
		"  rotation: granted   tile: granted\n",
		"rotation=true tile=true (TileLegal)",
		"operator table",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestLicenseVerifyCatchesTampering(t *testing.T) {
	lic := legalize(t, `
param n, m
array ia[n] int
array x[m]
array w[n]
loop i = 0, n {
    x[ia[i]] = x[ia[i]] * 0.5 + w[i]
}
`)[0]
	lic.Tile, lic.Rotation = true, true
	if err := lic.Verify(); err == nil {
		t.Fatalf("tampered license must fail verification")
	}
}
