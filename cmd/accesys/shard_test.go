package main

// End-to-end tests of the `accesys shard` subcommand tree: dispatch
// and usage errors, plan JSON, the plan -> run -> merge -> warm-sweep
// round trip on a small manifest (and, under -race, with two workers
// running concurrently), and the full fig4 acceptance path against
// the committed golden rows, once straight through and once with a
// shard worker killed mid-run and retried into the same directory.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// quadManifest is a four-point GEMM matrix small enough to simulate
// in milliseconds but wide enough that a 2-way partition usually
// populates both shards.
const quadManifest = `{
  "name": "quad",
  "title": "quad sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "lanes", "values": [1, 2, 4, 8]}]
}`

func TestShardRequiresSubcommand(t *testing.T) {
	code, _, errOut := testApp(t, "shard")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage: accesys shard plan") {
		t.Fatalf("no usage on stderr:\n%s", errOut)
	}
}

func TestShardUnknownSubcommandFails(t *testing.T) {
	code, _, errOut := testApp(t, "shard", "frobnicate")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown shard subcommand") {
		t.Fatalf("stderr missing diagnosis:\n%s", errOut)
	}
}

func TestShardHelpExitsZero(t *testing.T) {
	if code, _, _ := testApp(t, "shard", "-h"); code != 0 {
		t.Fatal("shard -h should exit 0")
	}
}

func TestShardPlanEmitsPartitionJSON(t *testing.T) {
	manifest := writeManifest(t, quadManifest)
	code, out, errOut := testApp(t, "shard", "plan", "-shards", "3", manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	var plan struct {
		Scenario string `json:"scenario"`
		Shards   int    `json:"shards"`
		Counts   []int  `json:"counts"`
		Points   []struct {
			Index       int    `json:"index"`
			Key         string `json:"key"`
			Fingerprint string `json:"fingerprint"`
			Shard       int    `json:"shard"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(out), &plan); err != nil {
		t.Fatalf("plan is not valid JSON: %v\n%s", err, out)
	}
	if plan.Scenario != "quad" || plan.Shards != 3 || len(plan.Points) != 4 {
		t.Fatalf("unexpected plan: %+v", plan)
	}
	total := 0
	for _, c := range plan.Counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("counts %v do not cover 4 points", plan.Counts)
	}
	for i, p := range plan.Points {
		if p.Index != i || p.Shard < 0 || p.Shard >= 3 || p.Fingerprint == "" {
			t.Fatalf("bad assignment %d: %+v", i, p)
		}
	}
}

func TestShardPlanRequiresShards(t *testing.T) {
	manifest := writeManifest(t, quadManifest)
	code, _, errOut := testApp(t, "shard", "plan", manifest)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-shards") {
		t.Fatalf("stderr missing diagnosis:\n%s", errOut)
	}
}

func TestShardRunRejectsBadSpecs(t *testing.T) {
	manifest := writeManifest(t, quadManifest)
	dir := t.TempDir()
	for _, spec := range []string{"", "2", "3/3", "-1/3", "x/3", "1/x"} {
		if code, _, _ := testApp(t, "shard", "run", "-shard", spec, "-dir", dir, manifest); code != 2 {
			t.Fatalf("-shard %q accepted", spec)
		}
	}
	if code, _, _ := testApp(t, "shard", "run", "-shard", "0/2", manifest); code != 2 {
		t.Fatal("missing -dir accepted")
	}
}

func TestShardMergeRejectsBadInput(t *testing.T) {
	if code, _, _ := testApp(t, "shard", "merge", t.TempDir()); code != 2 {
		t.Fatal("missing -out accepted")
	}
	if code, _, _ := testApp(t, "shard", "merge", "-out", t.TempDir()); code != 2 {
		t.Fatal("missing shard dirs accepted")
	}
	// A directory without shard.json is not a shard.
	code, _, errOut := testApp(t, "shard", "merge", "-out", t.TempDir(), t.TempDir())
	if code != 2 || !strings.Contains(errOut, "not a shard directory") {
		t.Fatalf("summary-less dir accepted (exit %d):\n%s", code, errOut)
	}
}

// runShardCLI runs `shard run` for slice k/n into dir, reporting a
// non-zero exit via t.Errorf — Error, not Fatal, so it is safe to
// call from spawned worker goroutines too.
func runShardCLI(t *testing.T, manifest, dir string, k, n int) bool {
	t.Helper()
	code, out, errOut := testApp(t, "shard", "run", "-shard", fmt.Sprintf("%d/%d", k, n), "-dir", dir, manifest)
	if code != 0 {
		t.Errorf("shard run %d/%d exit %d:\n%s%s", k, n, code, out, errOut)
		return false
	}
	return true
}

func TestShardRoundTripWarmsSweep(t *testing.T) {
	// plan -> run each shard -> merge -> sweep over the merged cache:
	// every point must be served warm and the rows must match a
	// single-process run byte for byte.
	manifest := writeManifest(t, quadManifest)
	root := t.TempDir()
	var dirs []string
	for k := 0; k < 2; k++ {
		dir := filepath.Join(root, fmt.Sprintf("s%d", k))
		if !runShardCLI(t, manifest, dir, k, 2) {
			return
		}
		dirs = append(dirs, dir)
	}
	merged := filepath.Join(root, "merged")
	code, out, errOut := testApp(t, append([]string{"shard", "merge", "-out", merged}, dirs...)...)
	if code != 0 {
		t.Fatalf("merge exit %d:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "4 entries imported") {
		t.Fatalf("merge report:\n%s", out)
	}

	code, warm, errOut := testApp(t, "sweep", "-cache", merged, "-v", manifest)
	if code != 0 {
		t.Fatalf("warm sweep exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "4 hits, 0 misses") {
		t.Fatalf("merged cache not fully warm:\n%s", errOut)
	}
	code, cold, errOut := testApp(t, "sweep", "-nocache", manifest)
	if code != 0 {
		t.Fatalf("reference sweep exit %d:\n%s", code, errOut)
	}
	if got, want := stripNotes(warm), stripNotes(cold); got != want {
		t.Fatalf("warm rows differ from single-process rows:\n--- warm\n%s\n--- cold\n%s", got, want)
	}

	// The equivalence audit's timing side must be served from the
	// merged cache too.
	code, _, errOut = testApp(t, "equiv", "-cache", merged, "-v", manifest)
	if code != 0 {
		t.Fatalf("equiv over merged cache exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "4 hits, 0 misses") {
		t.Fatalf("equiv did not warm-hit the merged cache:\n%s", errOut)
	}
}

func TestShardConcurrentWorkers(t *testing.T) {
	// Two shard workers running concurrently against sibling
	// directories — the process-parallel deployment, compressed into
	// goroutines so the race detector can watch it.
	manifest := writeManifest(t, quadManifest)
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "s0"), filepath.Join(root, "s1")}
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			runShardCLI(t, manifest, dirs[k], k, 2)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	merged := filepath.Join(root, "merged")
	if code, _, errOut := testApp(t, append([]string{"shard", "merge", "-out", merged}, dirs...)...); code != 0 {
		t.Fatalf("merge exit %d:\n%s", code, errOut)
	}
	_, _, errOut := testApp(t, "sweep", "-cache", merged, "-v", manifest)
	if !strings.Contains(errOut, "4 hits, 0 misses") {
		t.Fatalf("merged cache not fully warm:\n%s", errOut)
	}
}

func TestShardWeightedPlanRoundTripViaCLI(t *testing.T) {
	// Warm a cache (which also warms its wall-time profile), compute a
	// weighted plan from it, and run both shards from the serialized
	// plan file — the path `shard plan -profile` users drive.
	manifest := writeManifest(t, quadManifest)
	root := t.TempDir()
	cacheDir := filepath.Join(root, "cache")
	if code, _, errOut := testApp(t, "sweep", "-cache", cacheDir, manifest); code != 0 {
		t.Fatalf("profiling sweep failed:\n%s", errOut)
	}

	code, planJSON, errOut := testApp(t, "shard", "plan", "-profile", cacheDir, "-shards", "2", manifest)
	if code != 0 {
		t.Fatalf("weighted plan exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(planJSON, `"weighted": true`) || !strings.Contains(planJSON, `"predicted_wall_ns"`) {
		t.Fatalf("plan is not weighted:\n%s", planJSON)
	}
	planPath := filepath.Join(root, "plan.json")
	if err := os.WriteFile(planPath, []byte(planJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	var dirs []string
	for k := 0; k < 2; k++ {
		dir := filepath.Join(root, fmt.Sprintf("s%d", k))
		code, out, errOut := testApp(t, "shard", "run", "-plan", planPath, "-shard", fmt.Sprintf("%d/2", k), "-dir", dir, manifest)
		if code != 0 {
			t.Fatalf("shard run -plan %d/2 exit %d:\n%s%s", k, code, out, errOut)
		}
		dirs = append(dirs, dir)
	}
	merged := filepath.Join(root, "merged")
	if code, _, errOut := testApp(t, append([]string{"shard", "merge", "-out", merged}, dirs...)...); code != 0 {
		t.Fatalf("merge exit %d:\n%s", code, errOut)
	}
	_, _, errOut = testApp(t, "sweep", "-cache", merged, "-v", manifest)
	if !strings.Contains(errOut, "4 hits, 0 misses") {
		t.Fatalf("merged weighted-plan cache not fully warm:\n%s", errOut)
	}
}

func TestShardRunRejectsMismatchedPlan(t *testing.T) {
	manifest := writeManifest(t, quadManifest)
	root := t.TempDir()
	code, planJSON, errOut := testApp(t, "shard", "plan", "-shards", "2", manifest)
	if code != 0 {
		t.Fatalf("plan exit %d:\n%s", code, errOut)
	}
	planPath := filepath.Join(root, "plan.json")
	if err := os.WriteFile(planPath, []byte(planJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "s0")
	// Shard width disagrees with the plan.
	if code, _, _ := testApp(t, "shard", "run", "-plan", planPath, "-shard", "0/3", "-dir", dir, manifest); code != 2 {
		t.Fatal("plan/shard width mismatch accepted")
	}
	// -full disagrees with the plan.
	if code, _, _ := testApp(t, "shard", "run", "-full", "-plan", planPath, "-shard", "0/2", "-dir", dir, manifest); code != 2 {
		t.Fatal("plan/full mismatch accepted")
	}
	// A different manifest (scenario name) disagrees with the plan.
	other := writeManifest(t, miniManifest)
	if code, _, _ := testApp(t, "shard", "run", "-plan", planPath, "-shard", "0/2", "-dir", dir, other); code != 2 {
		t.Fatal("plan/scenario mismatch accepted")
	}
	// A missing or corrupt plan file fails loudly.
	if code, _, _ := testApp(t, "shard", "run", "-plan", "no/such/plan.json", "-shard", "0/2", "-dir", dir, manifest); code != 2 {
		t.Fatal("missing plan accepted")
	}
	bad := filepath.Join(root, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := testApp(t, "shard", "run", "-plan", bad, "-shard", "0/2", "-dir", dir, manifest); code != 2 {
		t.Fatal("corrupt plan accepted")
	}
}

// stripNotes drops the trailing comment lines (wall time, shape
// checks) a renderer appends, leaving title, header, and data rows.
func stripNotes(table string) string {
	var rows []string
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		rows = append(rows, line)
	}
	return strings.Join(rows, "\n")
}

func TestShardFig4RoundTripMatchesGolden(t *testing.T) {
	// The acceptance path: 3-shard fig4 plan/run/merge, then the
	// merged cache must serve `accesys sweep` rows byte-identical to
	// the committed golden rows with zero cold simulations.
	if testing.Short() {
		t.Skip("re-simulates all of fig4; skipped in -short")
	}
	if raceEnabled {
		t.Skip("re-simulates all of fig4 under -race for minutes without adding race coverage")
	}
	const manifest = "../../testdata/fig4.json"
	root := t.TempDir()
	var dirs []string
	for k := 0; k < 3; k++ {
		dir := filepath.Join(root, fmt.Sprintf("s%d", k))
		if !runShardCLI(t, manifest, dir, k, 3) {
			return
		}
		dirs = append(dirs, dir)
	}
	merged := filepath.Join(root, "merged")
	code, out, errOut := testApp(t, append([]string{"shard", "merge", "-out", merged}, dirs...)...)
	if code != 0 {
		t.Fatalf("merge exit %d:\n%s%s", code, out, errOut)
	}

	code, rows, errOut := testApp(t, "sweep", "-cache", merged, "-v", manifest)
	if code != 0 {
		t.Fatalf("warm sweep exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "35 hits, 0 misses") {
		t.Fatalf("merged fig4 cache not fully warm:\n%s", errOut)
	}
	golden, err := os.ReadFile("../../testdata/golden/fig4.txt")
	if err != nil {
		t.Fatal(err)
	}
	// The golden file carries the experiment's shape-check notes and
	// the sweep appends a wall-time note; the byte-identity claim is
	// about title, header, and data rows.
	if got, want := stripNotes(rows), stripNotes(string(golden)); got != want {
		t.Fatalf("merged-cache rows differ from golden fig4 rows:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// shardRunProcess runs `accesys shard run -v` for slice k/n as a real
// subprocess (this test binary, re-exec'd in the given
// ACCESYS_WORKER_MODE) and returns its exit code, stdout and stderr.
func shardRunProcess(t *testing.T, mode, manifest, dir string, k, n int) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "shard", "run", "-v", "-shard", fmt.Sprintf("%d/%d", k, n), "-dir", dir, manifest)
	cmd.Env = append(os.Environ(), "ACCESYS_WORKER_MODE="+mode)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("starting shard run %d/%d: %v", k, n, err)
	return -1, "", ""
}

func TestShardRunResumesAfterKilledWorker(t *testing.T) {
	// Retrying a failed shard is re-running it into the same
	// directory: a worker killed after its first completed point leaves
	// that point's entry on disk, the retry serves it warm and simulates
	// only the rest, and the merged cache still serves rows
	// byte-identical to the committed golden rows.
	if testing.Short() {
		t.Skip("re-simulates all of fig4; skipped in -short")
	}
	if raceEnabled {
		t.Skip("re-simulates all of fig4 under -race for minutes without adding race coverage")
	}
	const manifest = "../../testdata/fig4.json"
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "s0"), filepath.Join(root, "s1"), filepath.Join(root, "s2")}

	code, out, errOut := shardRunProcess(t, "die", manifest, dirs[1], 1, 3)
	if code != 137 {
		t.Fatalf("dying worker exit %d, want 137:\n%s%s", code, out, errOut)
	}
	code, out, errOut = shardRunProcess(t, "run", manifest, dirs[1], 1, 3)
	if code != 0 {
		t.Fatalf("retried shard exit %d:\n%s%s", code, out, errOut)
	}
	var points, cold, warm int
	if _, err := fmt.Sscanf(out, "shard 1/3 of fig4: %d points (%d cold, %d warm)", &points, &cold, &warm); err != nil {
		t.Fatalf("retried shard summary unreadable (%v):\n%s", err, out)
	}
	if warm < 1 || cold < 1 {
		t.Fatalf("retry served %d warm and %d cold of %d points; want the killed worker's points warm and the rest cold:\n%s", warm, cold, points, out)
	}
	if n := strings.Count(errOut, "(cached)"); n != warm {
		t.Fatalf("retry printed %d cached progress lines for %d warm points:\n%s", n, warm, errOut)
	}

	for _, k := range []int{0, 2} {
		if !runShardCLI(t, manifest, dirs[k], k, 3) {
			return
		}
	}
	merged := filepath.Join(root, "merged")
	if code, out, errOut := testApp(t, append([]string{"shard", "merge", "-out", merged}, dirs...)...); code != 0 {
		t.Fatalf("merge exit %d:\n%s%s", code, out, errOut)
	}
	code, rows, errOut := testApp(t, "sweep", "-cache", merged, "-v", manifest)
	if code != 0 {
		t.Fatalf("warm sweep exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "35 hits, 0 misses") {
		t.Fatalf("merged fig4 cache not fully warm:\n%s", errOut)
	}
	golden, err := os.ReadFile("../../testdata/golden/fig4.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripNotes(rows), stripNotes(string(golden)); got != want {
		t.Fatalf("resumed-shard rows differ from golden fig4 rows:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
