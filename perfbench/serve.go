package main

// The serve-mixed workload: the sweep daemon in-process behind a
// loopback HTTP server, with one fresh cache per iteration, driven by
// nproc closed-loop clients. Each client submits the next manifest of
// a seeded sequence, waits on the job's event stream for its terminal
// state, fetches the rows, and only then submits again. The server
// runs nproc jobs at once, each with one sweep worker.
//
// The sequence is synthetic: no record of real daemon traffic exists
// to draw it from. It mixes, in equal shares, three kinds of
// submission of small GEMM manifests, so the result cache is written
// beside being read and in-flight dedup has work:
//
//   - grow: a family's manifest with one more packet size than its last
//     one. The points it shares with earlier grows hit the cache, or
//     coalesce in sweep.Flight while those still run.
//   - resubmit: an exact copy of one grow, after it; all hits.
//   - rename: a copy of one grow under another name, after it. Every
//     point is simulated again, because the config name is part of a
//     point's fingerprint.
//
// Every grow gets one resubmit and one renamed copy. The seed picks
// where in its family's sequence each copy falls and how the families
// interleave, so every seed simulates the same distinct points. Each
// job's rows must equal a direct Scenario.Run of its manifest, every
// outcome in the daemon's cache must equal the reference outcome, and
// every HTTP answer must be 2xx.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"accesys/internal/scenario"
	"accesys/internal/serve"
	"accesys/internal/sweep"
)

// serveGEMM keeps each simulation small: the workload measures the
// daemon and the cache, not the simulator.
const serveGEMM = 128

// serveFamilies are the base presets of the manifest families.
var serveFamilies = []string{"pcie2gb", "pcie8gb", "pcie64gb", "default"}

// servePackets is the packet-size pool a family grows through.
var servePackets = []int{64, 128, 256, 512, 1024, 2048, 4096}

// serveJob is one submission of the sequence.
type serveJob struct {
	kind     string
	manifest []byte
	runs     []scenario.Run
	fps      []string // point fingerprints, in expansion order
}

// jobStatus is the part of the daemon's job status the clients read.
type jobStatus struct {
	State       string `json:"state"`
	Error       string `json:"error"`
	Total       int    `json:"total"`
	Cold        int    `json:"cold"`
	Warm        int    `json:"warm"`
	Shared      int    `json:"shared"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// jobResult is what one client saw of one job.
type jobResult struct {
	latency time.Duration
	status  jobStatus
	rows    []byte
	err     error // a transport error or a non-2xx answer
}

type serveWork struct {
	b   *bench
	seq []serveJob
	// distinct lists each distinct point of the sequence once, in
	// first-submission order: the simulations a round must pay for.
	distinct []pointRef
	// ref holds the direct Scenario.Run reference, computed once.
	ref *serveRef

	// Per iteration, made by setup.
	dir    string
	cache  *sweep.Cache
	prof   *sweep.Profile
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// pointRef addresses point p of job j.
type pointRef struct{ j, p int }

// serveRef is the reference for one round: the rendered rows of each
// distinct manifest and the outcome of each distinct point.
type serveRef struct {
	rows map[string][]byte
	outs map[string]sweep.Outcome
}

func newServeMixed(b *bench) (workload, error) {
	w := &serveWork{b: b}
	rng := rand.New(rand.NewSource(b.seed))
	var queues [][]serveJob
	for f, preset := range serveFamilies {
		// Each family grows through the packet sizes in its own fixed
		// order, so every seed submits the same manifests.
		var order []int
		for i := range servePackets {
			order = append(order, servePackets[(i+2*f)%len(servePackets)])
		}
		name := fmt.Sprintf("mix%d", f)
		var q []serveJob
		for k := 2; k <= len(order); k++ {
			q = append(q, serveJob{kind: "grow", manifest: serveManifest(name, preset, order[:k])})
		}
		for g := 2; g <= len(order); g++ {
			grow := serveManifest(name, preset, order[:g])
			copies := []serveJob{
				{kind: "resubmit", manifest: grow},
				{kind: "rename", manifest: serveManifest(fmt.Sprintf("%s-copy%d", name, g), preset, order[:g])},
			}
			for _, c := range copies {
				at := 0
				for i, j := range q {
					if bytes.Equal(j.manifest, grow) {
						at = i
						break
					}
				}
				q = insert(q, at+1+rng.Intn(len(q)-at), c)
			}
		}
		queues = append(queues, q)
	}
	for {
		var open []int
		for f, q := range queues {
			if len(q) > 0 {
				open = append(open, f)
			}
		}
		if len(open) == 0 {
			break
		}
		f := open[rng.Intn(len(open))]
		w.seq = append(w.seq, queues[f][0])
		queues[f] = queues[f][1:]
	}

	seen := map[string]bool{}
	for j := range w.seq {
		sc, err := scenario.Parse(w.seq[j].manifest)
		if err != nil {
			return nil, err
		}
		runs, err := sc.Expand(false)
		if err != nil {
			return nil, err
		}
		w.seq[j].runs = runs
		for p, pt := range sc.Points(runs) {
			w.seq[j].fps = append(w.seq[j].fps, pt.Fingerprint)
			if !seen[pt.Fingerprint] {
				seen[pt.Fingerprint] = true
				w.distinct = append(w.distinct, pointRef{j, p})
			}
		}
	}
	return w, nil
}

func insert(q []serveJob, pos int, j serveJob) []serveJob {
	q = append(q, serveJob{})
	copy(q[pos+1:], q[pos:])
	q[pos] = j
	return q
}

func serveManifest(name, preset string, packets []int) []byte {
	m, _ := json.Marshal(map[string]any{
		"name":     name,
		"base":     preset,
		"workload": map[string]any{"kind": "gemm", "n": serveGEMM},
		"axes":     []any{map[string]any{"axis": "packet_bytes", "values": packets}},
	})
	return m
}

func (w *serveWork) setup(tr *tracer) error {
	w.dir = w.b.freshDir("serve")
	cache, err := sweep.OpenSalted(w.dir)
	if err != nil {
		return err
	}
	w.cache = cache
	if w.prof, err = sweep.LoadProfile(cache.Dir()); err != nil {
		return err
	}
	w.srv, err = serve.New(serve.Config{Cache: cache, Profile: w.prof, Jobs: 1, Concurrency: w.b.nproc})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.b.nproc},
	}
	return nil
}

func (w *serveWork) teardown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := w.hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: shutting down: %v\n", err)
		}
		cancel()
		<-w.served
	}
	if w.srv != nil {
		if err := w.srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: closing the daemon: %v\n", err)
		}
	}
	os.RemoveAll(w.dir)
	w.cache, w.prof, w.srv, w.hs, w.client = nil, nil, nil, nil, nil
}

func (w *serveWork) measure(tr *tracer) (*iteration, error) {
	results := make([]jobResult, len(w.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.b.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(w.seq) {
					return
				}
				results[j] = w.runJob(tr, c, j)
			}
		}()
	}
	wg.Wait()
	it := &iteration{end: time.Now()}

	ref := w.ref
	if tr != nil || ref == nil {
		var err error
		if ref, err = w.reference(tr); err != nil {
			return nil, err
		}
		if tr == nil {
			w.ref = ref
		}
	}
	var waits, runs []float64
	var warm, shared, total int
	for j, r := range results {
		it.jobs = append(it.jobs, r.latency)
		it.points += len(w.seq[j].fps)
		it.cold += r.status.Cold
		warm += r.status.Warm
		shared += r.status.Shared
		total += r.status.Total
		if r.err != nil {
			it.check(false, "serve-mixed: job %d (%s): %v", j, w.seq[j].kind, r.err)
			continue
		}
		it.check(r.status.State == "done" && bytes.Equal(r.rows, ref.rows[string(w.seq[j].manifest)]),
			"serve-mixed: job %d (%s) ended %s %s with rows that differ from a direct Scenario.Run", j, w.seq[j].kind, r.status.State, r.status.Error)
		sub, e1 := time.Parse(time.RFC3339Nano, r.status.SubmittedAt)
		start, e2 := time.Parse(time.RFC3339Nano, r.status.StartedAt)
		fin, e3 := time.Parse(time.RFC3339Nano, r.status.FinishedAt)
		if e1 == nil && e2 == nil && e3 == nil {
			waits = append(waits, float64(start.Sub(sub))/1e6)
			runs = append(runs, float64(fin.Sub(start))/1e6)
		}
	}

	// The daemon's cache must hold exactly the reference outcome of
	// every distinct point.
	keys := make([]string, len(w.distinct))
	outs := make([]sweep.Outcome, len(w.distinct))
	bad := 0
	it.bestNs = math.Inf(1)
	for i, d := range w.distinct {
		job := w.seq[d.j]
		fp := job.fps[d.p]
		keys[i], outs[i] = job.runs[d.p].Key, ref.outs[fp]
		got, ok := w.cache.Get(fp)
		if !ok || !sameOutcome(got, outs[i]) {
			bad++
		}
		it.simNs += outs[i].Dur.Nanoseconds()
		it.bestNs = math.Min(it.bestNs, outs[i].Dur.Nanoseconds())
	}
	it.check(bad == 0, "serve-mixed: %d daemon cache entries differ from the reference outcomes", bad)
	it.sig = signature(keys, outs)

	if tr != nil {
		var all []scenario.Run
		for _, j := range w.seq {
			all = append(all, j.runs...)
		}
		it.layers = map[string]float64{
			"serve.queue_wait_ms_p50": percentile(waits, 0.5),
			"serve.run_ms_p50":        percentile(runs, 0.5),
			"sweep.hit_ratio":         ratio(float64(warm), float64(total)),
			"sweep.shared":            float64(shared),
			"sweep.reuse_ratio":       reuseRatio(all),
			// The daemon's engine runs inside the server, out of
			// this benchmark's reach; spans of the reference runs
			// would misreport them.
			"sweep.worker_util":       0,
			"sweep.point_wall_max_ms": 0,
		}
	}
	return it, nil
}

// runJob submits job j as client c and waits for its rows.
func (w *serveWork) runJob(tr *tracer, c, j int) (res jobResult) {
	t0 := time.Now()
	defer func() { res.latency = time.Since(t0) }()

	var sub struct {
		ID string `json:"id"`
	}
	s := tr.span("http.POST /sweeps")
	req, err := http.NewRequest(http.MethodPost, w.base+"/sweeps", bytes.NewReader(w.seq[j].manifest))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("X-Accesys-Client", fmt.Sprintf("client%d", c))
	res.err = w.do(req, func(body io.Reader) error { return json.NewDecoder(body).Decode(&sub) })
	s.end()
	if res.err != nil {
		return res
	}

	s = tr.span("http.GET /sweeps/{id}/events")
	res.err = w.get("/sweeps/"+sub.ID+"/events", func(body io.Reader) error {
		dec := json.NewDecoder(body)
		for {
			var st jobStatus
			if err := dec.Decode(&st); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
			res.status = st
		}
	})
	s.end()
	if res.err != nil {
		return res
	}

	s = tr.span("http.GET /sweeps/{id}/rows")
	res.err = w.get("/sweeps/"+sub.ID+"/rows?format=text", func(body io.Reader) error {
		var err error
		res.rows, err = io.ReadAll(body)
		return err
	})
	s.end()
	return res
}

func (w *serveWork) get(path string, read func(io.Reader) error) error {
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		return err
	}
	return w.do(req, read)
}

// do sends req and hands a 2xx body to read; any other status is an
// error carrying the daemon's message.
func (w *serveWork) do(req *http.Request, read func(io.Reader) error) error {
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

// reference runs every distinct manifest of the sequence directly,
// without the daemon, on its own fresh cache, and collects the rendered
// rows and every point's outcome. Untraced, that is Scenario.Run;
// traced, the same steps with each layer's call in a span.
func (w *serveWork) reference(tr *tracer) (*serveRef, error) {
	dir := w.b.freshDir("ref")
	defer os.RemoveAll(dir)
	cache, err := sweep.OpenSalted(dir)
	if err != nil {
		return nil, err
	}
	ref := &serveRef{rows: map[string][]byte{}, outs: map[string]sweep.Outcome{}}
	for _, job := range w.seq {
		if _, ok := ref.rows[string(job.manifest)]; ok {
			continue
		}
		sc, err := scenario.Parse(job.manifest)
		if err != nil {
			return nil, err
		}
		var res *scenario.Result
		if tr == nil {
			res, err = sc.Run(scenario.Options{Jobs: w.b.nproc, Cache: cache})
		} else {
			res, err = w.tracedRun(tr, sc, cache)
		}
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		res.Fprint(&buf)
		ref.rows[string(job.manifest)] = buf.Bytes()
		for _, fp := range job.fps {
			out, ok := cache.Get(fp)
			if !ok {
				return nil, fmt.Errorf("reference run of %s left no outcome for a point", sc.Name)
			}
			ref.outs[fp] = out
		}
	}
	return ref, nil
}

// tracedRun is Scenario.Run with every layer call in a span.
func (w *serveWork) tracedRun(tr *tracer, sc *scenario.Scenario, cache *sweep.Cache) (*scenario.Result, error) {
	s := tr.span("scenario.Expand")
	runs, err := sc.Expand(false)
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.span("scenario.Points")
	points, err := tracedPoints(tr, sc, runs, cache, nil)
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.span("sweep.Engine.Run")
	outs := (&sweep.Engine{Jobs: w.b.nproc}).Run(points)
	s.end()
	s = tr.span("scenario.Render")
	defer s.end()
	return sc.Render(false, runs, outs)
}
