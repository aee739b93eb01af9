package main

// The traced point runner. A traced iteration cannot reach inside the
// points scenario.Points builds, so it rebuilds each GEMM point from
// the same public calls scenario.TimeGEMM and sweep.Engine make —
// Cache.GetRef, scenario.BuildSystem, System.Run, Cache.PutRef and
// Profile.Observe — with a span around each layer's call. Every traced
// iteration's outcomes are compared with an untraced iteration's, so
// this copy cannot drift from the program's own points unnoticed.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"accesys/internal/core"
	"accesys/internal/driver"
	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// smmuStats are the statistics the "smmu" metric group extracts.
var smmuStats = []string{"translations", "trans_ns", "ptws", "ptw_ns", "utlb_lookups", "utlb_misses"}

// tracedPoints wraps every run of sc as a traced point. cache and prof,
// when non-nil, are consulted and filled the way the engine would; the
// engine running these points must then have neither.
func tracedPoints(tr *tracer, sc *scenario.Scenario, runs []scenario.Run, cache *sweep.Cache, prof *sweep.Profile) ([]sweep.Point, error) {
	if k := sc.Workload.Kind; k != "" && k != "gemm" {
		return nil, fmt.Errorf("scenario %s: traced runs support gemm workloads only, not %q", sc.Name, k)
	}
	points := sc.Points(runs)
	for i := range points {
		p, r := points[i], runs[i]
		points[i].Run = func() sweep.Outcome {
			ps := tr.span("sweep.point")
			defer ps.end()
			var ref sweep.Ref
			if cache != nil {
				ref = cache.Ref(p.Fingerprint)
				s := tr.span("sweep.Cache.GetRef")
				out, ok := cache.GetRef(ref)
				s.end()
				if ok {
					return out
				}
			}
			t0 := time.Now()
			out := simulateGEMM(tr, sc.Metrics, r)
			wall := time.Since(t0)
			if cache != nil {
				s := tr.span("sweep.Cache.PutRef")
				cache.PutRef(ref, out)
				s.end()
			}
			if prof != nil {
				prof.Observe(p.Fingerprint, wall)
			}
			return out
		}
	}
	return points, nil
}

// simulateGEMM times one square GEMM under r's config, as
// scenario.TimeGEMM does, and extracts the scenario's metric groups.
func simulateGEMM(tr *tracer, groups []string, r scenario.Run) sweep.Outcome {
	s := tr.span("scenario.BuildSystem")
	sys, drv := scenario.BuildSystem(r.Cfg)
	s.end()
	var res driver.Result
	drv.RunGEMM(driver.GEMMSpec{M: r.N, N: r.N, K: r.N}, func(x driver.Result) { res = x })
	s = tr.span("core.System.Run")
	sys.Run()
	s.end()
	if res.Completed == 0 {
		panic(fmt.Sprintf("GEMM under %s never completed", r.Cfg.Name))
	}
	tr.count(sys)
	out := sweep.Outcome{Dur: res.Job.Duration()}
	if len(groups) > 0 {
		out.Values = extract(groups, sys, r.Cfg, res)
	}
	return out
}

// extract reads the declared metric groups out of a finished system.
func extract(groups []string, sys *core.System, cfg core.Config, res driver.Result) map[string]float64 {
	out := map[string]float64{}
	for _, g := range groups {
		switch g {
		case "pages":
			out["pages"] = float64(res.PagesMapped)
		case "smmu":
			if cfg.SMMU.Bypass {
				continue
			}
			for _, stat := range smmuStats {
				out[stat] = sys.Stats.Lookup(cfg.Name + ".smmu." + stat).Value()
			}
		case "accel":
			out["tiles"] = float64(res.Job.Tiles)
			out["bytes_in"] = float64(res.Job.BytesIn)
			out["bytes_out"] = float64(res.Job.BytesOut)
			out["compute_busy_ns"] = float64(res.Job.ComputeBusy.Nanoseconds())
		}
	}
	return out
}

// signature canonically encodes outcomes keyed by point, so two
// iterations can be compared exactly.
func signature(keys []string, outs []sweep.Outcome) string {
	var b strings.Builder
	for i, o := range outs {
		fmt.Fprintf(&b, "%s %d", keys[i], int64(o.Dur))
		names := make([]string, 0, len(o.Values))
		for k := range o.Values {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%v", k, o.Values[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sameOutcome reports whether two outcomes are identical; a missing
// and an empty value map are the same.
func sameOutcome(a, b sweep.Outcome) bool {
	if a.Dur != b.Dur || len(a.Values) != len(b.Values) {
		return false
	}
	for k, v := range a.Values {
		if bv, ok := b.Values[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// reuseRatio is the share of points whose configuration was already
// seen earlier in the sequence, compared with the config name cleared
// (the name is part of every point's cache fingerprint, so a renamed
// copy of a simulated point is a miss even though nothing physical
// changed).
func reuseRatio(runs []scenario.Run) float64 {
	seen := map[string]bool{}
	reused := 0
	for _, r := range runs {
		cfg := r.Cfg
		cfg.Name = ""
		fp := sweep.Fingerprint(append([]any{"gemm", r.N}, cfg.FingerprintParts()...)...)
		if seen[fp] {
			reused++
		}
		seen[fp] = true
	}
	return ratio(float64(reused), float64(len(runs)))
}
