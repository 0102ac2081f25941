package main

import "testing"

func TestParseMixChecksTheKernelsTable(t *testing.T) {
	datasets := func(mvm, mesh string) map[string]string {
		return map[string]string{"mvm": mvm, "euler": mesh, "moldyn": mesh}
	}
	mix, err := parseMix("mvm=1,euler=2,moldyn=0", datasets("s", "10K"))
	if err != nil {
		t.Fatal(err)
	}
	want := []mixEntry{{kernel: "mvm", dataset: "S", weight: 1}, {kernel: "euler", dataset: "10k", weight: 2}}
	if len(mix) != len(want) || mix[0] != want[0] || mix[1] != want[1] {
		t.Fatalf("mix %+v, want %+v", mix, want)
	}
	for _, c := range []struct{ mix, mvm, mesh, msg string }{
		{"mvm=1", "Z", "2k", `mvm datasets: S, W, A, B (got "Z")`},
		{"mvm=1,moldyn=1", "S", "5k", `moldyn datasets: 2k, 10k (got "5k")`},
		{"mvm=1,eulr=1", "S", "2k", `unknown kernel "eulr"`},
	} {
		if _, err := parseMix(c.mix, datasets(c.mvm, c.mesh)); err == nil || err.Error() != c.msg {
			t.Errorf("-mix %s -mvm-dataset %s -mesh-dataset %s: error %v, want %s", c.mix, c.mvm, c.mesh, err, c.msg)
		}
	}
}
