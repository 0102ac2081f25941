// Compiler example: take an IRL program whose loop updates two reference
// groups, run the paper's Section 4 pipeline (section extraction,
// reference grouping, loop fission with temporary-array introduction,
// Threaded-C generation), execute the compiled plans on the phase runtime,
// and verify against direct interpretation.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/lang"
	"irred/internal/lint"
	"irred/internal/rts"
)

// Two reference groups: x is updated through both columns of ia (a mesh
// edge loop) while z is updated through ja (a different interaction list).
// The scalar t feeds both, so fission must introduce a temporary array.
const src = `
param n, m
array ia[n, 2] int
array ja[n] int
array x[m]
array z[m]
array y[n]

loop i = 0, n {
    t = y[i] * 2 + 1
    x[ia[i, 0]] += t
    x[ia[i, 1]] += t * 0.5
    z[ja[i]] -= t
}
`

func main() {
	// Lint first: the full pipeline is parse -> lint -> analyze -> fission
	// -> codegen. Error findings would make the program illegal under the
	// paper's restrictions; here the loop is legal, so lint only notes that
	// it updates two reference groups and fission will split it.
	diags, err := lint.RunSource(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== lint ===")
	if len(diags) == 0 {
		fmt.Println("no findings")
	} else {
		fmt.Print(diags.RenderString())
	}
	if diags.HasErrors() {
		log.Fatal("lint found errors; refusing to compile")
	}

	unit, err := codegen.Compile(src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== analysis (sections and reference groups) ===")
	fmt.Print(unit.Describe())

	fmt.Println("\n=== program after loop fission ===")
	fmt.Print(lang.Format(unit.Fissioned))

	fmt.Println("\n=== generated Threaded-C (first irregular plan) ===")
	for _, p := range unit.Plans {
		if p.Kind == codegen.Irregular {
			fmt.Print(p.ThreadedC())
			break
		}
	}

	// Bind data and execute: regular plans through the interpreter,
	// irregular plans on the native phase runtime at P=4, k=2.
	const n, m = 1000, 128
	rng := rand.New(rand.NewSource(7))
	env := interp.NewEnv(unit.Fissioned)
	env.SetParam("n", n)
	env.SetParam("m", m)
	ia := make([]int32, 2*n)
	ja := make([]int32, n)
	y := make([]float64, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(m))
	}
	for i := range ja {
		ja[i] = int32(rng.Intn(m))
	}
	for i := range y {
		y[i] = rng.Float64()
	}
	must(env.BindInt("ia", ia))
	must(env.BindInt("ja", ja))
	must(env.BindFloat("y", y))
	must(env.Alloc())

	for _, p := range unit.Plans {
		if p.Kind != 0 {
			must(env.RunLoop(p.Loop)) // prologue / regular loops
			continue
		}
		loop, contribs, err := p.BuildLoop(env, 4, 2, inspector.Cyclic)
		must(err)
		nat, err := rts.NewNative(loop)
		must(err)
		nat.Contribs = contribs
		must(nat.Run(1))
		must(p.Scatter(env, nat.X))
	}

	// Reference: interpret the original program directly.
	ref := interp.NewEnv(unit.Source)
	ref.SetParam("n", n)
	ref.SetParam("m", m)
	must(ref.BindInt("ia", ia))
	must(ref.BindInt("ja", ja))
	must(ref.BindFloat("y", y))
	must(ref.Alloc())
	must(ref.Run())

	for _, a := range []string{"x", "z"} {
		var maxd float64
		for i := range ref.Floats[a] {
			if d := math.Abs(env.Floats[a][i] - ref.Floats[a][i]); d > maxd {
				maxd = d
			}
		}
		fmt.Printf("\narray %s: compiled parallel execution vs interpreter, max diff %.2e", a, maxd)
		if maxd > 1e-9 {
			log.Fatalf("array %s diverged", a)
		}
	}
	fmt.Println("\n\ncompiled phase execution matches the interpreted program.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
