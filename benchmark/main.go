// Command benchmark is the repository's benchmark: seven named workloads
// from the phase engine to a cluster hop, driven through the public
// functions of rts, kernels, codegen/interp, inspector, service and
// cluster, every result checked against the sequential oracle. README.md
// defines the workloads and metrics; BENCHMARK.json declares them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"irred/internal/buildinfo"
)

// metricSpec declares one contract metric; BENCHMARK.json repeats the
// table and bench_test.go keeps the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the engine or a client of irredd sees. The
// bound is the relative worsening that counts as a regression: three times
// the widest run-to-run spread seen on a quiet 2-core host (README.md).
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the layer metrics every workload can measure on its own
// loop; workload-specific ones (interp.*, codegen.*, service.*, cluster.*)
// are printed as detail lines and written to -out.
var perLayer = []metricSpec{
	{Name: "rts.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "rts.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "rts.copy_ms", Unit: "ms", Better: "lower"},
	{Name: "rts.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "rts.handoffs_per_sweep", Unit: "count", Better: "lower"},
	{Name: "rts.trace_closure", Unit: "ratio", Better: "higher"},
	{Name: "kernels.seq_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.bytes_per_sweep", Unit: "B", Better: "lower"},
	{Name: "inspector.light_ms", Unit: "ms", Better: "lower"},
	{Name: "inspector.light_ns_per_iter", Unit: "ns", Better: "lower"},
	{Name: "inspector.key_ms", Unit: "ms", Better: "lower"},
	{Name: "inspector.update_ms", Unit: "ms", Better: "lower"},
	{Name: "inspector.write_ms", Unit: "ms", Better: "lower"},
	{Name: "inspector.read_ms", Unit: "ms", Better: "lower"},
	{Name: "inspector.schedule_bytes", Unit: "B", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.heap_delta_mb", Unit: "MB", Better: "lower"},
}

// workload is one named set of inputs. Why records what it stresses and
// which workload bypasses the same mechanism.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*env, *result) error
}

var workloads = []workload{
	{Name: "native.fine", run: runNativeFine,
		Why: "euler 2k mesh on rts.Native: ~0.3 ms sweeps, so portion handoff, goroutine spawn and per-sweep allocation dominate; native.coarse is its bypass"},
	{Name: "native.coarse", run: runNativeCoarse,
		Why: "mvm class A (30 MB of matrix) in gather mode: compute and memory traffic dominate and handoff is a few percent, so a handoff change must leave it flat"},
	{Name: "compiled.euler", run: runCompiledEuler,
		Why: "euler 10k mesh compiled from IRL: contributions come from interp bytecode, so interpreter cost per iteration dominates and handoff does not"},
	{Name: "serve.cold", run: runServeCold,
		Why: "irredd over loopback, 64 distinct raw jobs against a 16-entry cache: every request pays decode, ScheduleKey, LightInspector, engine and encode"},
	{Name: "serve.warm", run: runServeWarm,
		Why: "same daemon and job shape, 4 cached specs: the inspector does nothing, so an inspector change must not move it while a codec or engine change moves both"},
	{Name: "session.churn", run: runSessionChurn,
		Why: "one streaming session per client, binary deltas rewiring 1% of iterations: Schedule.Update and the IRDB codec in place of full inspection and JSON"},
	{Name: "cluster.hop", run: runClusterHop,
		Why: "three in-process nodes, the serve.warm stream sent only to a non-owner: every job pays exactly one proxy hop, the difference to serve.warm"},
}

// env is what every workload of one invocation shares.
type env struct {
	seed        int64
	P, C        int           // engine processors and closed-loop clients
	window      time.Duration // the measured time of one pass
	setupBudget time.Duration
	trace       bool
	tmp         string // scratch directory inside the checkout
	httpc       *http.Client
}

// result is one workload's pass.
type result struct {
	Workload  string       `json:"workload"`
	Trace     bool         `json:"trace"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Metrics   []metric     `json:"metrics"` // the contract metrics of this pass
	Detail    []metric     `json:"detail"`  // workload-specific layer metrics
	Spans     []replaySpan `json:"spans,omitempty"`
	Problems  []string     `json:"problems,omitempty"` // failed operations and premise checks
}

func (r *result) add(m ...metric)    { r.Metrics = append(r.Metrics, m...) }
func (r *result) detail(m ...metric) { r.Detail = append(r.Detail, m...) }

// metric returns the value of the named contract metric, NaN if absent.
func (r *result) metric(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// closureBand is the accepted ratio of attributed to elapsed time. Below
// it the spans miss a cost the layer table would then misplace; above it
// they double-count.
var closureBand = [2]float64{0.85, 1.15}

// checkClosure fails the run when a closure ratio leaves the band.
func (r *result) checkClosure(name string, v float64) {
	if !(v >= closureBand[0] && v <= closureBand[1]) {
		r.problem("%s = %.3f outside [%.2f, %.2f]", name, v, closureBand[0], closureBand[1])
	}
}

// value reports a number that was computed or counted, not timed.
func value(name string, v float64, unit string) metric {
	return metric{Name: name, Value: v, Unit: unit, N: 1}
}

// problem records a failed premise: the run prints no misleading number
// as if it were sound, it exits non-zero.
func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// count folds a window's operations into attempted and failed.
func (r *result) count(w *window) {
	a, f, first := w.counts()
	r.Attempted += a
	r.Failed += f
	if first != nil {
		r.problem("%d of %d operations failed, first: %v", f, a, first)
	}
}

// hostStamp makes a result attributable to a commit and a machine shape.
type hostStamp struct {
	Build        buildinfo.Info `json:"build"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	P            int            `json:"p"`
	C            int            `json:"c"`
	Seed         int64          `json:"seed"`
	WindowS      float64        `json:"window_s"`
	SetupBudgetS float64        `json:"setup_budget_s"`
	Slices       int            `json:"slices"`
	LLCBytes     int64          `json:"llc_bytes"` // 0 when sysfs does not say
}

func (e *env) stamp() hostStamp {
	return hostStamp{
		Build: buildinfo.Get(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		P: e.P, C: e.C, Seed: e.seed,
		WindowS: e.window.Seconds(), SetupBudgetS: e.setupBudget.Seconds(),
		Slices: numSlices, LLCBytes: llcBytes(),
	}
}

// llcBytes reads the size of the largest cache of cpu0 from sysfs.
func llcBytes() int64 {
	var best int64
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// newEnv sizes the run for this host: P = C = min(nproc, 4).
func newEnv(seed int64, window, setupBudget time.Duration, trace bool) (*env, error) {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	if runtime.GOMAXPROCS(0) < p {
		return nil, fmt.Errorf("GOMAXPROCS = %d < P = %d: the engine's processors would time-slice one core", runtime.GOMAXPROCS(0), p)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	return &env{
		seed: seed, P: p, C: p, window: window, setupBudget: setupBudget, trace: trace, tmp: tmp,
		httpc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: p, MaxIdleConnsPerHost: p, IdleConnTimeout: time.Minute,
		}},
	}, nil
}

func (e *env) close() {
	e.httpc.CloseIdleConnections()
	os.RemoveAll(e.tmp)
}

// share is a fraction of the measured window, for the parts of a traced
// pass.
func (e *env) share(f float64) time.Duration { return time.Duration(f * float64(e.window)) }

// runSet runs the named workloads in order, each from a collected heap.
func runSet(e *env, names []string) ([]*result, error) {
	var out []*result
	for _, name := range names {
		var wl *workload
		for i := range workloads {
			if workloads[i].Name == name {
				wl = &workloads[i]
			}
		}
		if wl == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := &result{Workload: name, Trace: e.trace}
		if err := wl.run(e, r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if e.trace {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			r.add(value("bench.heap_delta_mb", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/(1<<20), "MB"))
		}
		e.httpc.CloseIdleConnections()
		r.Correct = r.Failed == 0 && len(r.Problems) == 0
		if r.Attempted < 1 {
			r.Correct = false
			r.problem("no operation was attempted")
		}
		out = append(out, r)
	}
	return out, nil
}

// contractLine renders the last line the driver reads: exactly the
// declared metrics of the pass, each finite.
func contractLine(r *result) (string, error) {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	got := map[string]metric{}
	for _, m := range r.Metrics {
		if _, dup := got[m.Name]; dup {
			return "", fmt.Errorf("%s: metric %s reported twice", r.Workload, m.Name)
		}
		got[m.Name] = m
	}
	if len(got) != len(specs) {
		return "", fmt.Errorf("%s: %d metrics reported, %d declared", r.Workload, len(got), len(specs))
	}
	vals := map[string]mv{}
	for _, s := range specs {
		m, ok := got[s.Name]
		if !ok {
			return "", fmt.Errorf("%s: declared metric %s not reported", r.Workload, s.Name)
		}
		if m.Unit != s.Unit {
			return "", fmt.Errorf("%s: %s reported in %q, declared in %q", r.Workload, s.Name, m.Unit, s.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("%s: %s is %v", r.Workload, s.Name, m.Value)
		}
		vals[s.Name] = mv{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, vals})
	return string(line), err
}

// report prints one `workload metric value unit` line per metric, then the
// contract line.
func report(w io.Writer, r *result) error {
	line, err := contractLine(r)
	if err != nil {
		return err
	}
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Detail...) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s PROBLEM %s\n", r.Workload, p)
	}
	_, err = fmt.Fprintln(w, line)
	return err
}

// underBench reports whether path lies in a bench/ directory of the
// repository, which rts.NewTunerFromDir reads as tuner input: a result
// written there would be taken for a sweep trajectory. The repository root
// is the working directory, or its parent when run from benchmark/.
func underBench(path string) bool {
	abs, err := filepath.Abs(path)
	if err != nil {
		return true
	}
	root, err := os.Getwd()
	if err != nil {
		return true
	}
	if filepath.Base(root) == "benchmark" {
		root = filepath.Dir(root)
	}
	rel, err := filepath.Rel(root, filepath.Dir(abs))
	if err != nil {
		return true
	}
	for _, part := range strings.Split(rel, string(filepath.Separator)) {
		if part == "bench" {
			return true
		}
	}
	return false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workload names, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time per workload")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := fs.String("out", "", "write the full result (metrics, slices, spans, host stamp) to this file")
	aa := fs.Bool("aa", false, "run the set twice and compare the end-to-end values against their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *out != "" && underBench(*out) {
		return fail(fmt.Errorf("-out %s is under bench/, which the tuner reads as its input", *out))
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		return fail(fmt.Errorf("need -trace 0|1 and -seconds > 0"))
	}
	set := strings.Split(*names, ",")
	if *names == "all" {
		set = nil
		for _, wl := range workloads {
			set = append(set, wl.Name)
		}
	}
	e, err := newEnv(*seed, time.Duration(*seconds*float64(time.Second)), time.Second, *trace == 1)
	if err != nil {
		return fail(err)
	}
	defer e.close()

	if *aa {
		e.trace = false
		a, err := runSet(e, set)
		if err != nil {
			return fail(err)
		}
		b, err := runSet(e, set)
		if err != nil {
			return fail(err)
		}
		return compareAA(stdout, a, b)
	}

	results, err := runSet(e, set)
	if err != nil {
		return fail(err)
	}
	code := 0
	for _, r := range results {
		if err := report(stdout, r); err != nil {
			return fail(err)
		}
		if !r.Correct {
			code = 1
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(struct {
			Host    hostStamp `json:"host"`
			Results []*result `json:"results"`
		}{e.stamp(), results}, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	return code
}

// compareAA prints, per workload and end-to-end metric, both values, their
// relative difference and the bound; non-zero when a pair is further apart
// than its bound or a run was incorrect.
func compareAA(w io.Writer, a, b []*result) int {
	code := 0
	fmt.Fprintf(w, "| workload | metric | run A | run B | rel. diff | bound |\n|---|---|---|---|---|---|\n")
	for i := range a {
		if !a[i].Correct || !b[i].Correct {
			fmt.Fprintf(w, "%s PROBLEM %v %v\n", a[i].Workload, a[i].Problems, b[i].Problems)
			code = 1
		}
		for _, s := range endToEnd {
			va, vb := a[i].metric(s.Name), b[i].metric(s.Name)
			diff := math.Abs(vb-va) / va
			mark := ""
			if !(diff <= s.Bound) {
				mark, code = " OUTSIDE", 1
			}
			fmt.Fprintf(w, "| %s | %s | %.5g | %.5g | %.3f%s | %.2f |\n", a[i].Workload, s.Name, va, vb, diff, mark, s.Bound)
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
