package shard

// Worker and merge tests over fake points: Run closures return
// synthetic outcomes, so these exercise the partition/worker/merge
// machinery — slice selection, shard.json accounting, salt
// verification, collision detection, counter folding — without
// touching the simulator.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"accesys/internal/sim"
	"accesys/internal/sweep"
)

// fakePoints builds n points whose Run records which indexes executed.
func fakePoints(n int, ran *sync.Map) []sweep.Point {
	pts := make([]sweep.Point, n)
	for i := range pts {
		i := i
		pts[i] = sweep.Point{
			Key:         "pt-" + string(rune('a'+i)),
			Fingerprint: sweep.Fingerprint("fake", i),
			Run: func() sweep.Outcome {
				if ran != nil {
					ran.Store(i, true)
				}
				return sweep.Outcome{Dur: sim.Tick(i + 1)}
			},
		}
	}
	return pts
}

func mustPartition(t *testing.T, pts []sweep.Point, n int) *Plan {
	t.Helper()
	plan, err := Partition("fake", false, pts, n)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestWorkerRunsExactlyItsSlice(t *testing.T) {
	var ran sync.Map
	pts := fakePoints(12, &ran)
	plan := mustPartition(t, pts, 3)
	for k := 0; k < 3; k++ {
		k := k
		dir := t.TempDir()
		w := &Worker{Dir: dir, Jobs: 2}
		sum, err := w.Run(plan, k, pts)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Points != plan.Counts[k] || sum.Cold != plan.Counts[k] || sum.Warm != 0 {
			t.Fatalf("shard %d summary = %+v, want %d cold points", k, sum, plan.Counts[k])
		}
		if sum.Shard != k || sum.Of != 3 || sum.Scenario != "fake" {
			t.Fatalf("shard %d summary mislabeled: %+v", k, sum)
		}
		if sum.Salt == "" {
			t.Fatalf("shard %d summary has no binary salt", k)
		}
		// The written shard.json round-trips.
		got, err := ReadSummary(dir)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *sum {
			t.Fatalf("ReadSummary = %+v, want %+v", got, sum)
		}
	}
	// Every point ran exactly once across the three workers (disjoint
	// cover, executed): count the recorded indexes.
	total := 0
	ran.Range(func(_, _ any) bool { total++; return true })
	if total != 12 {
		t.Fatalf("%d of 12 points executed across the shards", total)
	}
}

func TestWorkerRerunIsWarm(t *testing.T) {
	pts := fakePoints(6, nil)
	plan := mustPartition(t, pts, 2)
	dir := t.TempDir()
	w := &Worker{Dir: dir}
	if _, err := w.Run(plan, 0, pts); err != nil {
		t.Fatal(err)
	}
	sum, err := w.Run(plan, 0, pts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cold != 0 || sum.Warm != plan.Counts[0] {
		t.Fatalf("re-run summary = %+v, want all warm", sum)
	}
}

func TestWorkerRejectsStalePlan(t *testing.T) {
	pts := fakePoints(4, nil)
	plan := mustPartition(t, pts, 2)
	w := &Worker{Dir: t.TempDir()}
	if _, err := w.Run(plan, 2, pts); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := w.Run(plan, 0, pts[:3]); err == nil {
		t.Fatal("short expansion accepted")
	}
	other := fakePoints(4, nil)
	other[2].Fingerprint = sweep.Fingerprint("drifted", 2)
	if _, err := w.Run(plan, 0, other); err == nil || !strings.Contains(err.Error(), "does not match the plan") {
		t.Fatalf("drifted expansion accepted: %v", err)
	}
}

// runShards executes every shard of the plan into fresh dirs and
// returns the dirs.
func runShards(t *testing.T, plan *Plan, pts []sweep.Point) []string {
	t.Helper()
	dirs := make([]string, plan.Shards)
	for k := range dirs {
		dirs[k] = filepath.Join(t.TempDir(), "shard")
		w := &Worker{Dir: dirs[k]}
		if _, err := w.Run(plan, k, pts); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

func TestMergeFoldsShardsIntoWarmCache(t *testing.T) {
	pts := fakePoints(12, nil)
	plan := mustPartition(t, pts, 3)
	dirs := runShards(t, plan, pts)

	dst := filepath.Join(t.TempDir(), "merged")
	st, err := Merge(dst, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 || st.Points != 12 || st.Imported != 12 || st.Duplicates != 0 {
		t.Fatalf("merge stats = %+v", st)
	}
	// Every shard ran cold, so the folded counters are 12 misses.
	if st.Counters.Misses != 12 || st.Counters.Hits != 0 {
		t.Fatalf("folded counters = %+v, want 12 misses", st.Counters)
	}

	// The merged cache warm-hits every fingerprint under this binary's
	// salt — exactly what a subsequent `accesys sweep -cache` sees.
	cache, err := sweep.OpenSalted(dst)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		out, ok := cache.Get(p.Fingerprint)
		if !ok || out.Dur != sim.Tick(i+1) {
			t.Fatalf("merged Get(%s) = %v, %v", p.Key, out, ok)
		}
	}
	// And the persisted counters carried over.
	c, err := cache.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if c.Misses != 12 {
		t.Fatalf("merged persisted counters = %+v", c)
	}
}

func TestMergeIsIdempotent(t *testing.T) {
	// A retried merge of the same shard state must not re-import
	// entries NOR re-fold accounting: the destination's persisted
	// counters stay at one sweep's worth of work.
	pts := fakePoints(6, nil)
	plan := mustPartition(t, pts, 2)
	dirs := runShards(t, plan, pts)
	dst := filepath.Join(t.TempDir(), "merged")
	if _, err := Merge(dst, dirs); err != nil {
		t.Fatal(err)
	}
	st, err := Merge(dst, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != 0 || st.Duplicates != 6 || st.AlreadyMerged != 2 {
		t.Fatalf("re-merge stats = %+v, want all duplicates + 2 already merged", st)
	}
	if st.Points != 0 || st.Counters != (sweep.Counters{}) {
		t.Fatalf("re-merge re-folded accounting: %+v", st)
	}
	cache, err := sweep.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if c.Misses != 6 {
		t.Fatalf("persisted counters after re-merge = %+v, want 6 misses (double-folded?)", c)
	}

	// A shard genuinely re-run (fresh shard.json) is folded again.
	w := &Worker{Dir: dirs[0]}
	if _, err := w.Run(plan, 0, pts); err != nil {
		t.Fatal(err)
	}
	st, err = Merge(dst, dirs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.AlreadyMerged != 0 || st.Points != plan.Counts[0] {
		t.Fatalf("re-run shard not re-folded: %+v", st)
	}
}

func TestMergeFoldsProfilesOnceUnderRetry(t *testing.T) {
	// Shard workers profile their points; the merge folds those
	// profiles into the destination — but, like the counters, only once
	// per shard state: a retried merge must not keep EWMA-ing a
	// destination estimate toward the source.
	pts := fakePoints(6, nil)
	plan := mustPartition(t, pts, 2)
	dirs := runShards(t, plan, pts)
	dst := filepath.Join(t.TempDir(), "merged")

	// Pin a known estimate for one of shard 0's points in the source,
	// and a deliberately different one in the destination (fake points
	// run in ~zero wall, so the workers' own measurements may or may
	// not have registered).
	target := pts[plan.Select(0)[0]].Fingerprint
	sp, err := sweep.LoadProfile(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	sp.Observe(target, 2*time.Second)
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	dp, err := sweep.LoadProfile(dst)
	if err != nil {
		t.Fatal(err)
	}
	dp.Observe(target, 8*time.Second)
	if err := dp.Flush(); err != nil {
		t.Fatal(err)
	}

	if _, err := Merge(dst, dirs); err != nil {
		t.Fatal(err)
	}
	merged, err := sweep.LoadProfile(dst)
	if err != nil {
		t.Fatal(err)
	}
	after1, ok := merged.Wall(target)
	if !ok {
		t.Fatal("seeded estimate vanished")
	}
	if after1 == 8*time.Second {
		t.Fatal("merge did not fold the source estimate at all")
	}

	// Retried merge: the ledger marks both shard states folded, so the
	// profile must not move again.
	if _, err := Merge(dst, dirs); err != nil {
		t.Fatal(err)
	}
	merged, err = sweep.LoadProfile(dst)
	if err != nil {
		t.Fatal(err)
	}
	after2, _ := merged.Wall(target)
	if after2 != after1 {
		t.Fatalf("retried merge re-folded the profile: %v -> %v", after1, after2)
	}
}

func TestMergeRejectsSaltMismatch(t *testing.T) {
	pts := fakePoints(4, nil)
	plan := mustPartition(t, pts, 2)
	dirs := runShards(t, plan, pts)
	// Doctor one summary to claim a different build.
	sum, err := ReadSummary(dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	sum.Salt = "0000deadbeef"
	data, _ := json.Marshal(sum)
	if err := os.WriteFile(filepath.Join(dirs[1], SummaryName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Merge(filepath.Join(t.TempDir(), "merged"), dirs)
	if err == nil || !strings.Contains(err.Error(), "salt mismatch") {
		t.Fatalf("mismatched salts merged: %v", err)
	}
}

func TestMergeRequiresShardSummaries(t *testing.T) {
	if _, err := Merge(t.TempDir(), nil); err == nil {
		t.Fatal("empty source list accepted")
	}
	plain := t.TempDir() // a directory with no shard.json
	_, err := Merge(filepath.Join(t.TempDir(), "merged"), []string{plain})
	if err == nil || !strings.Contains(err.Error(), "not a shard directory") {
		t.Fatalf("summary-less directory accepted: %v", err)
	}
}

func TestMergeDetectsDivergentOutcomes(t *testing.T) {
	// Two shard dirs holding the same fingerprint with different
	// payloads: a broken determinism contract the merge must refuse to
	// paper over.
	mk := func(dur sim.Tick) string {
		dir := filepath.Join(t.TempDir(), "shard")
		c, err := sweep.OpenSalted(dir)
		if err != nil {
			t.Fatal(err)
		}
		c.Put("shared-fp", sweep.Outcome{Dur: dur})
		if err := writeSummary(dir, &Summary{Scenario: "div", Of: 2, Salt: c.Salt, Points: 1}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dirs := []string{mk(1), mk(2)}
	_, err := Merge(filepath.Join(t.TempDir(), "merged"), dirs)
	if err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("divergent payloads merged: %v", err)
	}
}

// TestWorkerRunsOnInjectedClock pins the worker's wall accounting —
// the shard.json WallNs and the per-point walls feeding the weighted
// partitioner's profile — to an injected clock: every reading comes
// from the fake, each cold point observes exactly one clock step in
// the profile, and no wall ever touches the host clock.
func TestWorkerRunsOnInjectedClock(t *testing.T) {
	pts := fakePoints(6, nil)
	plan := mustPartition(t, pts, 2)
	dir := t.TempDir()

	const step = 100 * time.Millisecond
	base := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	calls := 0
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return base.Add(time.Duration(calls) * step)
	}

	w := &Worker{Dir: dir, Jobs: 1, Clock: clock}
	sum, err := w.Run(plan, 0, pts)
	if err != nil {
		t.Fatal(err)
	}
	// The worker reads the clock twice itself; every other reading is
	// the engine timing cold points (two per point under Jobs=1).
	wantCalls := 2 + 2*sum.Cold
	if calls != wantCalls {
		t.Fatalf("clock read %d times, want %d (2 worker + 2 per cold point)", calls, wantCalls)
	}
	if want := time.Duration(wantCalls-1) * step; sum.WallNs != want.Nanoseconds() {
		t.Fatalf("WallNs = %d, want %d (fake-clock span)", sum.WallNs, want.Nanoseconds())
	}
	// The flushed profile learned exactly one clock step per point —
	// the engine measured on the same fake.
	prof, err := sweep.LoadProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Len() != sum.Cold {
		t.Fatalf("profile has %d entries, want %d", prof.Len(), sum.Cold)
	}
	for _, idx := range plan.Select(0) {
		wall, ok := prof.Wall(pts[idx].Fingerprint)
		if !ok || wall != step {
			t.Fatalf("profile wall for %s = %v, %v; want %v", pts[idx].Key, wall, ok, step)
		}
	}
}
