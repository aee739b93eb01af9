// Command perfbench is the accesys benchmark. It drives the public API
// in-process — scenario, sweep, the serve daemon's HTTP handler over
// loopback, and explore — on one named workload, checks every output
// against the golden corpus or a direct reference run, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as one JSON object on the last line of standard output.
//
//	perfbench --workload fig4-cold --seed 1 --seconds 20 --trace 0
//
// It must run from the root of an accesys checkout; see README.md in
// this directory for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many extra set-ups each run times after its
// measured iterations, so setup_s is a median over enough samples to
// be steady even when a run fits only a few iterations.
const setupReps = 15

// workload is one benchmark input. setup prepares a fresh iteration
// (everything before the first point simulates), measure runs it and
// checks its output, teardown releases what setup made. A nil tracer
// means an untraced iteration.
type workload interface {
	setup(tr *tracer) error
	measure(tr *tracer) (*iteration, error)
	teardown()
}

// iteration is what one measured iteration of a workload reports.
type iteration struct {
	setup, wall time.Duration
	// points is how many design points the iteration resolved, cold
	// how many of them it simulated, simNs the simulated time of the
	// simulated ones, bestNs the simulated exec time of the rank-1
	// (fastest) point.
	points, cold  int
	simNs, bestNs float64
	// jobs holds one submit-to-rows latency per job the iteration ran.
	jobs []time.Duration
	// attempted counts checked outputs, failed those that were wrong.
	attempted, failed int
	// sig canonically encodes every simulated outcome, so a traced and
	// an untraced iteration of one seed can be compared exactly.
	sig string
	// layers holds the per-layer metrics of a traced iteration.
	layers map[string]float64
	// end is when the iteration's timed part ended; checks run after.
	end time.Time
	// rssMB is the process's peak resident set during the iteration.
	rssMB float64
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state every workload shares.
type bench struct {
	seed  int64
	nproc int
	// iter numbers the iteration (in a traced run, the pair) being
	// measured, so per-iteration inputs drawn from the seed differ
	// between iterations and repeat between runs.
	iter int
	// dir is this run's working directory inside the checkout's
	// .bench_build; result caches are opened under it.
	dir  string
	dirs int
}

// rng is the seeded random source of the current iteration.
func (b *bench) rng() *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + int64(b.iter)))
}

// freshDir returns a new empty directory for one result cache.
func (b *bench) freshDir(label string) string {
	b.dirs++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", label, b.dirs))
}

var workloads = map[string]func(*bench) (workload, error){
	"fig4-cold":    newFig4Cold,
	"mem-cold":     newMemCold,
	"serve-mixed":  newServeMixed,
	"explore-fig4": newExploreFig4,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: picks the point dispatch order, the daemon's submission sequence and the explore seed")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat(filepath.Join("testdata", "golden")); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the root of an accesys checkout: %v\n", err)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{seed: *seed, nproc: runtime.NumCPU(), dir: dir}
	w, err := mk(b)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	total0, steal0 := cpuTicks()
	var res *result
	var report map[string]any
	if *traced == 1 {
		res, report, err = runTraced(w, b, budget)
	} else {
		res, report, err = runUntraced(w, b, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	total1, steal1 := cpuTicks()
	report["workload"] = *name
	report["seed"] = *seed
	report["host"] = hostFingerprint()
	report["steal_pct"] = 100 * ratio(steal1-steal0, total1-total0)
	rep, _ := json.Marshal(map[string]any{"report": report})
	fmt.Fprintln(stdout, string(rep))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// once runs one iteration: set-up, measurement, teardown. A panic in
// the program under test is returned as an error.
func once(w workload, tr *tracer) (it *iteration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("iteration panicked: %v", r)
		}
	}()
	defer w.teardown()
	resetPeakRSS()
	t0 := time.Now()
	if err := w.setup(tr); err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	it, err = w.measure(tr)
	if err != nil {
		return nil, err
	}
	it.setup, it.wall = setup, it.end.Sub(t0)
	it.rssMB = peakRSSMB()
	if it.jobs == nil {
		// A workload that runs one job per iteration (a sweep, a
		// search) reports none: the job is the iteration.
		it.jobs = []time.Duration{it.wall}
	}
	return it, nil
}

// setups times extra set-ups (each torn down again untimed).
func setups(w workload, n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := w.setup(nil)
		d := time.Since(t0)
		w.teardown()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// runUntraced measures iterations until the budget is spent (at least
// one) and reports the end-to-end metrics.
func runUntraced(w workload, b *bench, budget time.Duration) (*result, map[string]any, error) {
	start := time.Now()
	var its []*iteration
	for len(its) == 0 || time.Since(start) < budget {
		b.iter = len(its)
		it, err := once(w, nil)
		if err != nil {
			return nil, nil, err
		}
		its = append(its, it)
	}
	setupTimes, err := setups(w, setupReps)
	if err != nil {
		return nil, nil, err
	}
	var walls, pps, sims, jps, cold, best, rss []float64
	var jobs []float64
	res := &result{Metrics: map[string]metric{}}
	for _, it := range its {
		ws := it.wall.Seconds()
		walls = append(walls, ws)
		pps = append(pps, float64(it.points)/ws)
		sims = append(sims, it.simNs/1e6/ws)
		jps = append(jps, float64(len(it.jobs))/ws)
		cold = append(cold, float64(it.cold))
		best = append(best, it.bestNs/1e6)
		rss = append(rss, it.rssMB)
		for _, j := range it.jobs {
			jobs = append(jobs, float64(j)/1e6)
		}
		setupTimes = append(setupTimes, it.setup)
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	var setupS []float64
	for _, d := range setupTimes {
		setupS = append(setupS, d.Seconds())
	}
	m := res.Metrics
	m["setup_s"] = metric{median(setupS), "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["points_per_s"] = metric{median(pps), "1/s"}
	m["sim_ms_per_host_s"] = metric{median(sims), "sim_ms/s"}
	m["job_p50_ms"] = metric{percentile(jobs, 0.50), "ms"}
	m["job_p90_ms"] = metric{percentile(jobs, 0.90), "ms"}
	m["jobs_per_s"] = metric{median(jps), "1/s"}
	m["cold_points"] = metric{median(cold), "count"}
	m["best_exec_ms"] = metric{median(best), "sim_ms"}
	m["max_rss_mb"] = metric{median(rss), "MB"}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report := map[string]any{
		"mode":          "untraced",
		"iterations":    len(its),
		"job_samples":   len(jobs),
		"setup_samples": len(setupS),
		"points":        its[0].points,
		"walls_s":       walls,
	}
	return res, report, nil
}

// runTraced alternates untraced and traced iterations until the budget
// is spent (at least one pair). Each pair must agree on every simulated
// outcome, and every traced iteration must repeat the first one's
// simulated counts exactly; each disagreement is a failed operation.
// Host-time layer metrics are medians over the traced iterations;
// trace.overhead_s is the median traced wall minus the median untraced
// wall.
func runTraced(w workload, b *bench, budget time.Duration) (*result, map[string]any, error) {
	start := time.Now()
	var plain, traced []*iteration
	spans := 0
	res := &result{Metrics: map[string]metric{}}
	for len(traced) == 0 || time.Since(start) < budget {
		b.iter = len(traced)
		u, err := once(w, nil)
		if err != nil {
			return nil, nil, err
		}
		tr := newTracer()
		t, err := once(w, tr)
		if err != nil {
			return nil, nil, err
		}
		t.layers = tr.layers(t.layers)
		spans += tr.spans
		t.check(u.sig == t.sig, "traced iteration %d: simulated outcomes differ from the untraced one's", len(traced))
		if len(traced) > 0 {
			t.check(sameCounts(traced[0].layers, t.layers), "traced iteration %d: simulated counts differ from the first traced iteration's", len(traced))
		}
		res.Attempted += u.attempted + t.attempted
		res.Failed += u.failed + t.failed
		plain = append(plain, u)
		traced = append(traced, t)
	}
	var pw, tw []float64
	for i := range traced {
		pw = append(pw, plain[i].wall.Seconds())
		tw = append(tw, traced[i].wall.Seconds())
	}
	for _, l := range layerMetrics {
		var vals []float64
		for _, t := range traced {
			vals = append(vals, t.layers[l.name])
		}
		res.Metrics[l.name] = metric{median(vals), l.unit}
	}
	res.Metrics["trace.overhead_s"] = metric{median(tw) - median(pw), "s"}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report := map[string]any{
		"mode":          "traced",
		"pairs":         len(traced),
		"spans":         spans,
		"untraced_wall": median(pw),
		"traced_wall":   median(tw),
	}
	return res, report, nil
}

// sameCounts reports whether two traced iterations simulated exactly
// the same work.
func sameCounts(a, b map[string]float64) bool {
	for _, l := range layerMetrics {
		if l.exact && a[l.name] != b[l.name] {
			return false
		}
	}
	return true
}

// hostFingerprint identifies the machine a report was measured on.
func hostFingerprint() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuTicks reads, from /proc/stat, the clock ticks all CPUs have spent
// so far and the part of them the hypervisor gave to other guests
// (steal). The report states the steal share of the run: on a shared
// virtual machine, time lost to other guests makes host times drift
// between runs of the same code. Both read 0 where /proc/stat is
// missing.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already part of user.
	for i, v := range f[1:9] {
		var x float64
		fmt.Sscan(v, &x)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// resetPeakRSS restarts the kernel's peak resident set count, so the
// next peakRSSMB covers one iteration. Where the kernel does not allow
// it, the peak stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set in MiB since the last reset.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// check counts one checked output against the iteration, logging a
// failure to standard error.
func (it *iteration) check(ok bool, format string, args ...any) {
	it.attempted++
	if !ok {
		it.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}
