package main

// End-to-end tests of the accesys subcommand dispatch: flag parsing,
// exit codes on bad input, CSV output, and the equivalence audit's
// pass/fail exit semantics. Everything runs in-process through app, so
// the tests assert on the same code paths main executes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the accesys CLI: the daemon
// smoke and the shard resume test re-exec this binary as a real
// `accesys` process. The modes:
//
//	"" (unset) - run the tests (the normal invocation)
//	run        - behave exactly like accesys
//	die        - behave like accesys but exit 137 after the first
//	             progress line: a worker killed mid-run, after some
//	             cache entries have already landed on disk
func TestMain(m *testing.M) {
	switch os.Getenv("ACCESYS_WORKER_MODE") {
	case "":
		os.Exit(m.Run())
	case "run":
		a := &app{stdout: os.Stdout, stderr: os.Stderr}
		os.Exit(a.main(os.Args[1:]))
	case "die":
		a := &app{stdout: os.Stdout, stderr: &dieAfterFirstProgress{}}
		os.Exit(a.main(os.Args[1:]))
	default:
		fmt.Fprintln(os.Stderr, "unknown ACCESYS_WORKER_MODE")
		os.Exit(2)
	}
}

// dieAfterFirstProgress forwards stderr until the first per-point
// progress line ("... [k/n] key -> dur ...") has been written, then
// kills the process from inside the sweep — a worker dying mid-shard
// with a partially filled cache directory (the completed point's entry
// is persisted before its progress line prints).
type dieAfterFirstProgress struct{}

func (d *dieAfterFirstProgress) Write(p []byte) (int, error) {
	n, err := os.Stderr.Write(p)
	if bytes.Contains(p, []byte("->")) {
		os.Exit(137)
	}
	return n, err
}

// testApp runs the command in-process and returns (exit code, stdout,
// stderr).
func testApp(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	a := &app{stdout: &stdout, stderr: &stderr}
	code := a.main(args)
	return code, stdout.String(), stderr.String()
}

// miniManifest is a two-point GEMM matrix small enough to simulate in
// milliseconds.
const miniManifest = `{
  "name": "mini",
  "title": "mini sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "lanes", "values": [4, 8]}]
}`

func writeManifest(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mini.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestListOutputsExperimentIDs(t *testing.T) {
	code, out, _ := testApp(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"fig2", "tab4", "fig9"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestListRejectsArguments(t *testing.T) {
	if code, _, _ := testApp(t, "list", "extra"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunUnknownExperimentFails(t *testing.T) {
	code, _, errOut := testApp(t, "run", "-nocache", "nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("stderr missing diagnosis:\n%s", errOut)
	}
}

func TestRunBadFlagFails(t *testing.T) {
	if code, _, _ := testApp(t, "run", "-definitely-not-a-flag"); code != 2 {
		t.Fatal("bad flag should exit 2")
	}
}

func TestSweepRequiresManifest(t *testing.T) {
	code, _, errOut := testApp(t, "sweep")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Fatalf("no usage on stderr:\n%s", errOut)
	}
}

func TestSweepBadManifestFails(t *testing.T) {
	path := writeManifest(t, `{"name": "bad", "workload": {"kind": "gemm", "n": 64}, "axes": [{"axis": "nope", "values": [1]}]}`)
	code, _, errOut := testApp(t, "sweep", "-nocache", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown axis") {
		t.Fatalf("stderr missing validation error:\n%s", errOut)
	}
}

// An oversize DMA burst fails validation naming the axis, before any
// simulation could panic on it.
func TestSweepOversizeBurstFails(t *testing.T) {
	path := writeManifest(t, `{"name": "bad", "workload": {"kind": "gemm", "n": 64}, "axes": [{"axis": "packet_bytes", "values": [8192]}]}`)
	code, _, errOut := testApp(t, "sweep", "-nocache", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, `axis "packet_bytes"`) || strings.Contains(errOut, "panic") {
		t.Fatalf("stderr should name the axis without a panic:\n%s", errOut)
	}
}

// TestSweepRejectsNegativeComputeTime pins that a negative compute
// time, which would schedule an event in the past mid-simulation,
// fails at parse naming the axis, while the zero values that select
// defaults still sweep. TestParseErrors covers the other unrunnable
// values.
func TestSweepRejectsNegativeComputeTime(t *testing.T) {
	const manifest = `{"name": "bad", "workload": {"kind": "gemm", "n": 32}, "axes": [
		{"axis": %q, "values": [%s]}, {"axis": "packet_bytes", "values": [64]}]}`
	path := writeManifest(t, fmt.Sprintf(manifest, "compute_ns", "-5"))
	code, _, errOut := testApp(t, "sweep", "-nocache", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, `axis "compute_ns"`) || strings.Contains(errOut, "panic") {
		t.Fatalf("stderr should name the axis without a panic:\n%s", errOut)
	}
	for _, axis := range []string{"lanes", "accelerators"} {
		path := writeManifest(t, fmt.Sprintf(manifest, axis, "0"))
		if code, _, errOut := testApp(t, "sweep", "-nocache", path); code != 0 {
			t.Fatalf("%s 0: exit %d, want the default to sweep:\n%s", axis, code, errOut)
		}
	}
}

func TestSweepMissingManifestFileFails(t *testing.T) {
	if code, _, _ := testApp(t, "sweep", "-nocache", "no/such/file.json"); code != 2 {
		t.Fatal("missing manifest should exit 2")
	}
}

func TestSweepRunsManifestAndWritesCSV(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	code, out, errOut := testApp(t, "sweep", "-nocache", "-jobs", "2", "-csv", csvPath, manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "mini sweep") {
		t.Fatalf("table missing title:\n%s", out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // header + two points
		t.Fatalf("CSV rows = %d, want 3:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "point,exec") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestSweepCSVNeedsSingleManifest(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	code, _, _ := testApp(t, "sweep", "-nocache", "-csv", "x.csv", manifest, manifest)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestEquivRequiresTargets(t *testing.T) {
	if code, _, _ := testApp(t, "equiv"); code != 2 {
		t.Fatal("equiv without targets should exit 2")
	}
}

func TestEquivRejectsBadTolerances(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	if code, _, _ := testApp(t, "equiv", "-nocache", "-tol", "0.1", "-warn", "0.5", manifest); code != 2 {
		t.Fatal("warn > tol should exit 2")
	}
}

func TestEquivUnknownTargetFails(t *testing.T) {
	code, _, errOut := testApp(t, "equiv", "-nocache", "not-a-figure")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "neither a built-in experiment nor a loadable manifest") {
		t.Fatalf("stderr missing diagnosis:\n%s", errOut)
	}
}

func TestEquivPassesWithinTolerance(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	code, out, errOut := testApp(t, "equiv", "-nocache", manifest)
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "timing vs analytic divergence") {
		t.Fatalf("no divergence table:\n%s", out)
	}
}

func TestEquivFailsOnInjectedDivergence(t *testing.T) {
	// A vanishing tolerance turns ordinary model error into failures —
	// the injected-divergence path of the acceptance criteria.
	manifest := writeManifest(t, miniManifest)
	code, out, _ := testApp(t, "equiv", "-nocache", "-tol", "0.000001", "-warn", "0.0000005", manifest)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "fail") {
		t.Fatalf("no failing rows reported:\n%s", out)
	}
}

func TestEquivJSONReport(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	code, out, errOut := testApp(t, "equiv", "-nocache", "-json", manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	var reports []struct {
		Scenario    string `json:"scenario"`
		Comparisons []struct {
			Metric string `json:"metric"`
			Status string `json:"status"`
		} `json:"comparisons"`
	}
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if len(reports) != 1 || reports[0].Scenario != "mini" {
		t.Fatalf("unexpected reports: %+v", reports)
	}
	if len(reports[0].Comparisons) != 2 {
		t.Fatalf("comparisons = %d, want 2", len(reports[0].Comparisons))
	}
}

func TestEquivUsesWarmCache(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	cacheDir := t.TempDir()
	if code, _, errOut := testApp(t, "sweep", "-cache", cacheDir, manifest); code != 0 {
		t.Fatalf("seeding sweep failed: %s", errOut)
	}
	code, _, errOut := testApp(t, "equiv", "-cache", cacheDir, "-v", manifest)
	if code != 0 {
		t.Fatalf("equiv exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "2 hits") {
		t.Fatalf("warm cache not used:\n%s", errOut)
	}
}

func TestCachestatsOnFreshDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	code, out, _ := testApp(t, "cachestats", "-cache", dir)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"entries: 0", "hits:    0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCachestatsGCReports(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	code, out, _ := testApp(t, "cachestats", "-cache", dir, "-gc")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "gc: scanned 0 entries") {
		t.Fatalf("no gc report:\n%s", out)
	}
}

func TestCachestatsRejectsArgs(t *testing.T) {
	if code, _, _ := testApp(t, "cachestats", "stray"); code != 2 {
		t.Fatal("stray arg should exit 2")
	}
}

func TestHelpFlagExitsZero(t *testing.T) {
	// flag.ExitOnError historically exited 0 on -h; the in-process
	// FlagSets must preserve that for scripts probing subcommand usage.
	for _, cmd := range []string{"run", "sweep", "equiv", "cachestats"} {
		code, _, errOut := testApp(t, cmd, "-h")
		if code != 0 {
			t.Fatalf("%s -h exit %d, want 0", cmd, code)
		}
		if !strings.Contains(errOut, "usage: accesys "+cmd) {
			t.Fatalf("%s -h printed no usage:\n%s", cmd, errOut)
		}
	}
}

func TestHelpExitsUsage(t *testing.T) {
	code, _, errOut := testApp(t, "help")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "run|sweep|equiv|explore|shard|serve|cachestats|list") {
		t.Fatalf("help missing subcommands:\n%s", errOut)
	}
}

// TestSweepWritesProfiles pins the app-layer profiling flags: a sweep
// with -cpuprofile/-memprofile must leave non-empty pprof files.
func TestSweepWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	manifest := writeManifest(t, miniManifest)
	code, _, stderr := testApp(t, "sweep", "-nocache", "-cpuprofile", cpu, "-memprofile", mem, manifest)
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestRunBadProfilePathFails pins the error path: an unwritable
// profile destination is a usage error, not a silent no-op.
func TestRunBadProfilePathFails(t *testing.T) {
	code, _, stderr := testApp(t, "run", "-nocache", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "p.out"), "fig2")
	if code != usageErr {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}
