package main

// Tracing for the traced run: spans recorded around the benchmark's
// calls into each layer's public functions, and simulated counts read
// from each finished system's stats registry. The program under test
// carries no instrumentation of its own. A span is kept only as its
// name and duration: every per-layer metric is a sum, median or
// percentile of the durations of one span name.

import (
	"math"
	"strings"
	"sync"
	"time"

	"accesys/internal/core"
)

// tracer collects one traced iteration's span durations and simulated
// counts. A nil *tracer records nothing, so untraced iterations share
// the workload code at the cost of a nil check.
type tracer struct {
	mu sync.Mutex
	// durs holds, per span name, the duration in ms of every span.
	durs  map[string][]float64
	spans int
	// counts is the simulated work of every system the iteration
	// simulated; see count.
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{durs: map[string][]float64{}, counts: map[string]float64{}}
}

// open is a started span; end records it.
type open struct {
	t     *tracer
	name  string
	start time.Time
}

// span starts a span named name.
func (t *tracer) span(name string) open {
	if t == nil {
		return open{}
	}
	return open{t: t, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	d := time.Since(o.start)
	o.t.mu.Lock()
	o.t.durs[o.name] = append(o.t.durs[o.name], float64(d)/1e6)
	o.t.spans++
	o.t.mu.Unlock()
	return d
}

// total is the summed duration in ms of every span with the name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms float64
	for _, d := range t.durs[name] {
		ms += d
	}
	return ms
}

// count adds one finished system's simulated work to the iteration's
// counts. Groups are named <config name>.<component>; the component
// part selects the counter. Every count is a whole number, so summing
// systems in whatever order the workers finish them is exact.
func (t *tracer) count(sys *core.System) {
	if t == nil {
		return
	}
	c := map[string]float64{"systems": 1, "events": float64(sys.ExecutedEvents())}
	prefix := sys.Cfg.Name + "."
	for _, g := range sys.Stats.Groups() {
		comp, ok := strings.CutPrefix(g.Name(), prefix)
		if !ok {
			continue
		}
		v := func(stat string) float64 {
			if s := g.Lookup(stat); s != nil {
				return s.Value()
			}
			return 0
		}
		switch {
		case comp == "pcie.rc":
			c["tlps"] += v("tlps_up") + v("tlps_down")
		case comp == "hostmem", comp == "devmem":
			c[comp] += v("reads") + v("writes")
			c["row_hits"] += v("row_hits")
			c["row_misses"] += v("row_misses")
		case comp == "membus":
			c["membus"] += v("packets")
		case comp == "llc":
			c["llc_hits"] += v("hits")
			c["llc_misses"] += v("misses")
		case comp == "smmu":
			c["translations"] += v("translations")
			c["ptws"] += v("ptws")
			c["stall_ps"] += math.Round(v("stall_ns") * 1000)
		case strings.HasPrefix(comp, "accel") && strings.HasSuffix(comp, "dma"):
			c["bursts"] += v("bursts")
		}
	}
	t.mu.Lock()
	for k, x := range c {
		t.counts[k] += x
	}
	t.mu.Unlock()
}

// layerMetric is one per-layer metric; exact ones are simulated counts
// that must repeat identically across traced iterations.
type layerMetric struct {
	name, unit string
	exact      bool
}

// layerMetrics is every per-layer metric a traced run reports, in
// BENCHMARK.json order. A metric that does not apply to a workload
// reads 0 there; README.md says which workload each one is for.
var layerMetrics = []layerMetric{
	{"sim.ns_per_event", "ns", false},
	{"sim.events", "count", true},
	{"sim.run_s", "s", false},
	{"pcie.tlps", "count", true},
	{"pcie.events_per_tlp", "events/tlp", true},
	{"dram.hostmem_accesses", "count", true},
	{"dram.devmem_accesses", "count", true},
	{"dram.row_hit_rate", "ratio", true},
	{"interconnect.membus_packets", "count", true},
	{"cache.llc_hit_rate", "ratio", true},
	{"smmu.translations", "count", true},
	{"smmu.ptws", "count", true},
	{"smmu.stall_ns", "sim_ns", true},
	{"dma.bursts", "count", true},
	{"core.build_ms", "ms", false},
	{"sweep.worker_util", "ratio", false},
	{"sweep.point_wall_max_ms", "ms", false},
	{"sweep.hit_ratio", "ratio", false},
	{"sweep.reuse_ratio", "ratio", true},
	{"sweep.shared", "count", false},
	{"sweep.cache_io_ms", "ms", false},
	{"serve.submit_ms_p50", "ms", false},
	{"serve.queue_wait_ms_p50", "ms", false},
	{"serve.run_ms_p50", "ms", false},
	{"serve.rows_ms_p50", "ms", false},
	{"explore.screened", "count", true},
	{"explore.promoted", "count", true},
	{"explore.cold_timing", "count", true},
	{"analytic.screen_ms", "ms", false},
	{"scenario.expand_ms", "ms", false},
	{"scenario.render_ms", "ms", false},
}

// layers derives the per-layer metrics of the iteration from its spans
// and counts. Values the workload measured itself (from job statuses,
// explore traces, input analysis) come in as given and win. It runs
// once the iteration has ended, when nothing records any more.
func (t *tracer) layers(given map[string]float64) map[string]float64 {
	durs, c, sum := t.durs, t.counts, t.total
	runS := sum("core.System.Run") / 1e3
	m := map[string]float64{
		"sim.ns_per_event":            ratio(runS*1e9, c["events"]),
		"sim.events":                  c["events"],
		"sim.run_s":                   runS,
		"pcie.tlps":                   c["tlps"],
		"pcie.events_per_tlp":         ratio(c["events"], c["tlps"]),
		"dram.hostmem_accesses":       c["hostmem"],
		"dram.devmem_accesses":        c["devmem"],
		"dram.row_hit_rate":           ratio(c["row_hits"], c["row_hits"]+c["row_misses"]),
		"interconnect.membus_packets": c["membus"],
		"cache.llc_hit_rate":          ratio(c["llc_hits"], c["llc_hits"]+c["llc_misses"]),
		"smmu.translations":           c["translations"],
		"smmu.ptws":                   c["ptws"],
		"smmu.stall_ns":               c["stall_ps"] / 1000,
		"dma.bursts":                  c["bursts"],
		"core.build_ms":               median(durs["scenario.BuildSystem"]),
		"sweep.cache_io_ms":           sum("sweep.Cache.GetRef") + sum("sweep.Cache.PutRef"),
		"sweep.point_wall_max_ms":     percentile(durs["sweep.point"], 1),
		"analytic.screen_ms":          sum("scenario.AnalyticMetrics"),
		"scenario.expand_ms":          sum("scenario.Expand"),
		"scenario.render_ms":          sum("scenario.Render"),
		"serve.submit_ms_p50":         percentile(durs["http.POST /sweeps"], 0.5),
		"serve.rows_ms_p50":           percentile(durs["http.GET /sweeps/{id}/rows"], 0.5),
	}
	for k, v := range given {
		m[k] = v
	}
	return m
}
