package kernels

import (
	"fmt"
	"strings"

	"irred/internal/inspector"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// Workload is one of the paper's kernels opened on a dataset: the loop it
// hands the runtime, its native engine together with the slice that holds
// the result, and the sequential oracle of that slice. *MVM, *Euler and
// *Moldyn implement it.
type Workload interface {
	Loop(p, k int, dist inspector.Dist) *rts.Loop
	NewNativeFrom(scheds []*inspector.Schedule, p, k int, dist inspector.Dist) (*rts.Native, []float64, error)
	Oracle(steps int) []float64
}

// dataset is one named problem of a kernel, built deterministically from
// a seed.
type dataset struct {
	name string
	open func(seed int64) Workload
}

func mvmOn(c sparse.Class) dataset {
	return dataset{c.Name, func(seed int64) Workload { return NewMVM(sparse.Generate(c, uint64(seed))) }}
}

func eulerOn(name string, size func() (nodes, edges int)) dataset {
	return dataset{name, func(seed int64) Workload {
		nodes, edges := size()
		return NewEuler(mesh.Generate(nodes, edges, seed), seed)
	}}
}

func moldynOn(name string, sys func(seed int64) *moldyn.System) dataset {
	return dataset{name, func(seed int64) Workload { return NewMoldyn(sys(seed)) }}
}

// table is the catalogue of named problems (PAPER.md §1 item 4): kernels,
// and each kernel's datasets smallest first, in canonical spelling.
var table = []struct {
	kernel   string
	datasets []dataset
}{
	{"mvm", []dataset{mvmOn(sparse.ClassS), mvmOn(sparse.ClassW), mvmOn(sparse.ClassA), mvmOn(sparse.ClassB)}},
	{"euler", []dataset{eulerOn("2k", mesh.Paper2K), eulerOn("10k", mesh.Paper10K)}},
	{"moldyn", []dataset{moldynOn("2k", moldyn.Paper2K), moldynOn("10k", moldyn.Paper10K)}},
}

// Names lists the named kernels: mvm, euler, moldyn.
func Names() []string {
	var names []string
	for _, t := range table {
		names = append(names, t.kernel)
	}
	return names
}

// Datasets lists a kernel's dataset names; nil for an unknown kernel.
func Datasets(kernel string) []string {
	var names []string
	for _, t := range table {
		if t.kernel == kernel {
			for _, d := range t.datasets {
				names = append(names, d.name)
			}
		}
	}
	return names
}

// lookup finds a kernel's dataset, matching its name case-insensitively.
func lookup(kernel, name string) (dataset, error) {
	for _, t := range table {
		for _, d := range t.datasets {
			if t.kernel == kernel && strings.EqualFold(d.name, name) {
				return d, nil
			}
		}
	}
	if names := Datasets(kernel); names != nil {
		return dataset{}, fmt.Errorf("%s datasets: %s (got %q)", kernel, strings.Join(names, ", "), name)
	}
	return dataset{}, fmt.Errorf("unknown kernel %q", kernel)
}

// Dataset returns the canonical spelling of a kernel's dataset name.
func Dataset(kernel, name string) (string, error) {
	d, err := lookup(kernel, name)
	return d.name, err
}

// Open builds a kernel's dataset from seed.
func Open(kernel, name string, seed int64) (Workload, error) {
	d, err := lookup(kernel, name)
	if err != nil {
		return nil, err
	}
	return d.open(seed), nil
}
