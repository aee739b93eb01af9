package main

// The cold sweep workloads. fig4-cold sweeps the Fig. 4 manifest
// (5 links x 7 packet sizes, GEMM 512): PCIe TLP stepping and the
// event queue carry the work, and the small-packet, slow-link points
// set the tail. mem-cold sweeps the fig5 and tab4 builtins one after
// the other, as `accesys run fig5 tab4` does: DRAM, membus/LLC and the
// SMMU carry the work, and half
// of fig5 is device-side memory that barely touches PCIe — so a
// PCIe-only change should move fig4-cold and leave mem-cold alone.
//
// Each iteration opens a fresh salted result cache and its wall-time
// profile (as `accesys sweep` does), dispatches each scenario's points
// to nproc workers in an order drawn from the seed — a new order each
// iteration, so a run's median covers several placements of the
// slowest points — renders the tables, and flushes the cache counters
// and the profile as the CLI does when a sweep ends. The rows are then checked byte for byte
// against testdata/golden.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"accesys/internal/exp"
	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// source is one scenario a sweep workload runs.
type source struct {
	id   string
	load func() (*scenario.Scenario, error)
	// check compares the iteration's output with the golden rows.
	check func(w *sweepWork, i int, res *scenario.Result) error
}

type sweepWork struct {
	b       *bench
	sources []source
	golden  map[string][]byte

	// Per iteration, made by setup.
	dir    string
	cache  *sweep.Cache
	prof   *sweep.Profile
	scs    []*scenario.Scenario
	runs   [][]scenario.Run
	points [][]sweep.Point
}

func newFig4Cold(b *bench) (workload, error) {
	return newSweepWork(b, source{
		id:    "fig4",
		load:  func() (*scenario.Scenario, error) { return scenario.Load(filepath.Join("testdata", "fig4.json")) },
		check: checkManifestRows,
	})
}

func newMemCold(b *bench) (workload, error) {
	return newSweepWork(b,
		source{id: "fig5", load: builtin("fig5"), check: checkPaperTable(exp.Fig5MemoryLocation)},
		source{id: "tab4", load: builtin("tab4"), check: checkPaperTable(exp.Tab4Translation)},
	)
}

func newSweepWork(b *bench, sources ...source) (*sweepWork, error) {
	w := &sweepWork{b: b, sources: sources, golden: map[string][]byte{}}
	for _, s := range sources {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", s.id+".txt"))
		if err != nil {
			return nil, err
		}
		w.golden[s.id] = data
	}
	return w, nil
}

func builtin(id string) func() (*scenario.Scenario, error) {
	return func() (*scenario.Scenario, error) {
		sc, ok := scenario.Builtin(id)
		if !ok {
			return nil, fmt.Errorf("no builtin scenario %q", id)
		}
		return sc, nil
	}
}

func (w *sweepWork) setup(tr *tracer) error {
	w.dir = w.b.freshDir("sweep")
	cache, err := sweep.OpenSalted(w.dir)
	if err != nil {
		return err
	}
	w.cache = cache
	if w.prof, err = sweep.LoadProfile(cache.Dir()); err != nil {
		return err
	}
	for _, src := range w.sources {
		sc, err := src.load()
		if err != nil {
			return err
		}
		s := tr.span("scenario.Expand")
		runs, err := sc.Expand(false)
		s.end()
		if err != nil {
			return err
		}
		s = tr.span("scenario.Points")
		var pts []sweep.Point
		if tr == nil {
			pts = sc.Points(runs)
		} else {
			pts, err = tracedPoints(tr, sc, runs, cache, w.prof)
		}
		s.end()
		if err != nil {
			return err
		}
		w.scs = append(w.scs, sc)
		w.runs = append(w.runs, runs)
		w.points = append(w.points, pts)
	}
	return nil
}

func (w *sweepWork) teardown() {
	os.RemoveAll(w.dir)
	w.cache, w.prof, w.scs, w.runs, w.points = nil, nil, nil, nil, nil
}

func (w *sweepWork) measure(tr *tracer) (*iteration, error) {
	it := &iteration{}
	rng := w.b.rng()
	var keys []string
	var all []sweep.Outcome
	var results []*scenario.Result
	var engMs float64
	for si, sc := range w.scs {
		runs, points := w.runs[si], w.points[si]
		// The seed picks each iteration's dispatch order; outcomes are
		// put back in declaration order before rendering.
		perm := rng.Perm(len(points))
		order := make([]sweep.Point, len(perm))
		for k, i := range perm {
			order[k] = points[i]
		}
		eng := &sweep.Engine{Jobs: w.b.nproc}
		if tr == nil {
			eng.Cache, eng.Profile = w.cache, w.prof
			eng.OnResult = func(r sweep.Result) {
				if !r.Cached && !r.Shared {
					it.cold++
				}
			}
		}
		s := tr.span("sweep.Engine.Run")
		got := eng.Run(order)
		engMs += float64(s.end()) / 1e6
		outs := make([]sweep.Outcome, len(got))
		for k, i := range perm {
			outs[i] = got[k]
		}
		s = tr.span("scenario.Render")
		res, err := sc.Render(false, runs, outs)
		s.end()
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		for _, r := range runs {
			keys = append(keys, r.Key)
		}
		all = append(all, outs...)
	}
	if err := w.cache.FlushCounters(); err != nil {
		return nil, err
	}
	if err := w.prof.Flush(); err != nil {
		return nil, err
	}
	it.end = time.Now()

	it.points = len(all)
	it.bestNs = math.Inf(1)
	for _, o := range all {
		it.simNs += o.Dur.Nanoseconds()
		it.bestNs = math.Min(it.bestNs, o.Dur.Nanoseconds())
	}
	it.sig = signature(keys, all)
	for si, src := range w.sources {
		err := src.check(w, si, results[si])
		it.check(err == nil, "%s: %v", src.id, err)
	}
	if tr != nil {
		it.cold = int(tr.counts["systems"])
		var runs []scenario.Run
		for _, r := range w.runs {
			runs = append(runs, r...)
		}
		it.layers = map[string]float64{
			"sweep.worker_util": ratio(tr.total("sweep.point"), engMs*float64(w.b.nproc)),
			"sweep.reuse_ratio": reuseRatio(runs),
		}
	}
	return it, nil
}

// checkManifestRows compares a manifest sweep's table with the golden
// file of the same matrix, whose trailing "#" notes only the paper
// experiment prints.
func checkManifestRows(w *sweepWork, i int, res *scenario.Result) error {
	var got bytes.Buffer
	res.Fprint(&got)
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(w.golden[w.sources[i].id]), "\n") {
		if !strings.HasPrefix(line, "  # ") {
			want.WriteString(line)
		}
	}
	return diff(got.String(), want.String())
}

// checkPaperTable renders the paper's table for the experiment from the
// iteration's cache — every point must be a hit — and compares it with
// the golden file.
func checkPaperTable(render func(exp.Options) *exp.Result) func(*sweepWork, int, *scenario.Result) error {
	return func(w *sweepWork, i int, _ *scenario.Result) error {
		cold := 0
		res := render(exp.Options{Jobs: 1, Cache: w.cache, OnResult: func(r sweep.Result) {
			if !r.Cached {
				cold++
			}
		}})
		if cold > 0 {
			return fmt.Errorf("%d points missing from the sweep's cache", cold)
		}
		var got bytes.Buffer
		res.Fprint(&got)
		return diff(got.String(), string(w.golden[w.sources[i].id]))
	}
}

// diff reports the first differing line of got and want, nil when they
// are identical.
func diff(got, want string) error {
	if got == want {
		return nil
	}
	g, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(wl); i++ {
		if g[i] != wl[i] {
			return fmt.Errorf("line %d: got %q, want %q", i+1, g[i], wl[i])
		}
	}
	return fmt.Errorf("got %d lines, want %d", len(g), len(wl))
}
