package main

// The explore-fig4 workload: explore.Run over the Fig. 4 search
// manifest with a fresh cache and wall-time profile, as `accesys
// explore` opens them, and the benchmark seed as the strategy seed. The analytic screen, ranking and promotion to exact timing do
// the work; it is the only workload that measures the explore and
// analytic layers. Every exact-timing result must match the golden
// Fig. 4 cell of its point, and every search of a run must repeat the
// first one exactly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"accesys/internal/explore"
	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

type exploreWork struct {
	b *bench
	// cells maps each Fig. 4 point key to its golden table cell.
	cells map[string]string
	// first is the first search's trace, which later ones must repeat.
	first string

	// Per iteration, made by setup.
	dir   string
	cache *sweep.Cache
	prof  *sweep.Profile
	sc    *scenario.Scenario
}

func newExploreFig4(b *bench) (workload, error) {
	cells, err := goldenCells()
	if err != nil {
		return nil, err
	}
	return &exploreWork{b: b, cells: cells}, nil
}

// goldenCells reads the golden Fig. 4 table into point key -> cell.
// Rows are links and columns packet sizes, in the manifest's
// expansion order.
func goldenCells() (map[string]string, error) {
	sc, err := scenario.Load(filepath.Join("testdata", "fig4.json"))
	if err != nil {
		return nil, err
	}
	runs, err := sc.Expand(false)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "fig4.txt"))
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	cols := sc.AxisLen("packet_bytes", false)
	cells := map[string]string{}
	for i, r := range runs {
		row := 2 + i/cols // title and header lines come first
		if row >= len(lines) {
			return nil, fmt.Errorf("golden fig4 table has too few rows")
		}
		f := strings.Fields(lines[row])
		if len(f) != cols+1 {
			return nil, fmt.Errorf("golden fig4 row %q: want %d cells", lines[row], cols)
		}
		cells[r.Key] = f[1+i%cols]
	}
	return cells, nil
}

func (w *exploreWork) setup(tr *tracer) error {
	w.dir = w.b.freshDir("explore")
	cache, err := sweep.OpenSalted(w.dir)
	if err != nil {
		return err
	}
	w.cache = cache
	if w.prof, err = sweep.LoadProfile(cache.Dir()); err != nil {
		return err
	}
	w.sc, err = scenario.Load(filepath.Join("testdata", "explore_fig4.json"))
	return err
}

func (w *exploreWork) teardown() {
	os.RemoveAll(w.dir)
	w.cache, w.prof, w.sc = nil, nil, nil
}

func (w *exploreWork) measure(tr *tracer) (*iteration, error) {
	seed := w.b.seed
	s := tr.span("explore.Run")
	rep, err := explore.Run(w.sc, scenario.Options{Jobs: w.b.nproc, Cache: w.cache, Profile: w.prof}, explore.Params{Seed: &seed})
	s.end()
	if err != nil {
		return nil, err
	}
	if err := w.cache.FlushCounters(); err != nil {
		return nil, err
	}
	if err := w.prof.Flush(); err != nil {
		return nil, err
	}
	var frontier bytes.Buffer
	rep.Frontier.Fprint(&frontier)
	it := &iteration{end: time.Now()}

	sum := rep.Trace.Summary
	it.points, it.cold = sum.Promoted, sum.ColdTiming
	it.check(sum.Best != nil, "explore: search found no feasible point")
	if sum.Best != nil {
		it.bestNs = sum.Best.ObjectiveNs
	}
	gens, err := json.Marshal(rep.Trace.Generations)
	if err != nil {
		return nil, err
	}
	it.sig = string(gens)
	if w.first == "" {
		w.first = it.sig
	}
	it.check(it.sig == w.first, "explore: search differs from the run's first search at the same seed")

	var bad []string
	for _, g := range rep.Trace.Generations {
		if g.Fidelity != explore.FidelityTiming {
			continue
		}
		for _, e := range g.Evals {
			if e.Cold {
				it.simNs += e.ObjectiveNs
			}
			if got := fmt.Sprintf("%.3fms", e.ObjectiveNs/1e6); got != w.cells[e.Key] {
				bad = append(bad, fmt.Sprintf("%s=%s (golden %s)", e.Key, got, w.cells[e.Key]))
			}
		}
	}
	for _, row := range rep.Frontier.Rows {
		if len(row) != 3 || row[2] != w.cells[row[1]] {
			bad = append(bad, fmt.Sprintf("frontier row %q", row))
		}
	}
	it.check(len(bad) == 0, "explore: exact timing differs from golden fig4: %s", strings.Join(bad, ", "))

	if tr != nil {
		if err := w.replay(tr, rep.Trace, it); err != nil {
			return nil, err
		}
		it.layers = map[string]float64{
			"explore.screened":    float64(sum.Screened),
			"explore.promoted":    float64(sum.Promoted),
			"explore.cold_timing": float64(sum.ColdTiming),
			"sweep.hit_ratio":     ratio(float64(sum.WarmTiming), float64(sum.Promoted)),
		}
	}
	return it, nil
}

// replay re-evaluates the search's own evaluations outside explore.Run,
// which cannot be instrumented from here: every screened point through
// scenario.AnalyticMetrics and every cold exact-timing point through a
// traced simulation, whose duration must equal the search's.
func (w *exploreWork) replay(tr *tracer, trace *explore.Trace, it *iteration) error {
	sp, err := w.sc.Space(false)
	if err != nil {
		return err
	}
	for _, g := range trace.Generations {
		for _, e := range g.Evals {
			r, err := sp.RunAt(e.Index)
			if err != nil {
				return err
			}
			switch {
			case g.Fidelity == explore.FidelityAnalytic:
				s := tr.span("scenario.AnalyticMetrics")
				_, err := w.sc.AnalyticMetrics(r)
				s.end()
				if err != nil {
					return err
				}
			case g.Fidelity == explore.FidelityTiming && e.Cold:
				out := simulateGEMM(tr, w.sc.Metrics, r)
				it.check(out.Dur.Nanoseconds() == e.ObjectiveNs, "explore: traced %s took %v, the search saw %vns", e.Key, out.Dur, e.ObjectiveNs)
			}
		}
	}
	return nil
}
