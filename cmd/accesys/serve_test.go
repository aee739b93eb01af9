package main

// End-to-end tests of the `accesys serve` daemon. The smoke test
// re-execs this test binary as the real daemon process (TestMain's
// ACCESYS_WORKER_MODE=run), drives it over HTTP on an ephemeral port,
// and shuts it down with SIGTERM; the golden test runs the serve
// engine in-process over concurrently submitted overlapping fig4
// manifests and holds the rows to the committed golden corpus.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"accesys/internal/serve"
	"accesys/internal/sweep"
)

// serveJobStatus mirrors the daemon's job status wire format.
type serveJobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Error     string `json:"error"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Cold      int    `json:"cold"`
	Warm      int    `json:"warm"`
	Shared    int    `json:"shared"`
}

// servePost submits a manifest and decodes the JSON answer.
func servePost(t *testing.T, base, manifest, client string) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/sweeps", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Accesys-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body, resp.Header
}

// serveWait polls a job until it reaches a terminal state.
func serveWait(t *testing.T, base, id string) serveJobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st serveJobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (%d/%d)", id, st.State, st.Completed, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serveGetText fetches a job's rows in text format.
func serveGetText(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/sweeps/" + id + "/rows?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rows status %d: %s", resp.StatusCode, data)
	}
	return string(data)
}

func TestServeSmokeDaemon(t *testing.T) {
	// The daemon smoke: a real `accesys serve` process on an ephemeral
	// port runs the CI smoke manifest cold, then warm, renders rows
	// identical to a direct sweep, and drains cleanly on SIGTERM.
	manifest, err := os.ReadFile("../../testdata/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()

	cmd := exec.Command(os.Args[0], "serve", "-addr", "127.0.0.1:0", "-cache", cacheDir, "-v")
	cmd.Env = append(os.Environ(), "ACCESYS_WORKER_MODE=run")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its bound address once the listener is up; keep
	// draining stderr afterwards so the process never blocks on the pipe.
	var base string
	var logged bytes.Buffer
	var drained sync.WaitGroup
	scanner := bufio.NewScanner(stderr)
	for scanner.Scan() {
		line := scanner.Text()
		logged.WriteString(line + "\n")
		if _, addr, ok := strings.Cut(line, "serving on "); ok {
			base = addr
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never announced its address:\n%s", logged.String())
	}
	drained.Add(1)
	go func() {
		defer drained.Done()
		for scanner.Scan() {
			logged.WriteString(scanner.Text() + "\n")
		}
	}()

	// Cold run: every point simulated here.
	code, body, _ := servePost(t, base, string(manifest), "smoke")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	st := serveWait(t, base, body["id"].(string))
	if st.State != "done" || st.Cold != 4 || st.Warm != 0 {
		t.Fatalf("cold job = %+v, want done with 4 cold", st)
	}
	rows := serveGetText(t, base, st.ID)

	// Warm run: the same manifest resolves entirely from the shared cache.
	code, body, _ = servePost(t, base, string(manifest), "smoke")
	if code != http.StatusAccepted {
		t.Fatalf("warm submit: %d %v", code, body)
	}
	if st := serveWait(t, base, body["id"].(string)); st.Warm != 4 || st.Cold != 0 {
		t.Fatalf("warm job = %+v, want 4 warm", st)
	}

	// The daemon's rows match a direct in-process sweep byte for byte.
	sweepCode, direct, errOut := testApp(t, "sweep", "-nocache", "../../testdata/smoke.json")
	if sweepCode != 0 {
		t.Fatalf("reference sweep exit %d:\n%s", sweepCode, errOut)
	}
	if got, want := stripNotes(rows), stripNotes(direct); got != want {
		t.Fatalf("daemon rows differ from direct sweep:\n--- daemon\n%s\n--- direct\n%s", got, want)
	}

	// A manifest carrying an explore stanza must bounce with a clear
	// 422 naming the stanza — the daemon used to strip it silently and
	// sweep the full matrix instead of searching it.
	exploreManifest := strings.Replace(string(manifest), `"axes"`,
		`"explore": {"strategy": "random", "budget": "4"}, "axes"`, 1)
	code, body, _ = servePost(t, base, exploreManifest, "smoke")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("explore manifest submit: %d %v, want 422", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "explore") {
		t.Fatalf("explore rejection must name the stanza: %v", body)
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drained.Wait()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, logged.String())
	}
	if !strings.Contains(logged.String(), "serve drained") {
		t.Fatalf("daemon log missing drain notice:\n%s", logged.String())
	}
}

// fig4Superset is testdata/fig4.json with one extra packet size: the
// same scenario name, so its 35 overlapping points carry identical
// fingerprints, plus 5 points of its own.
const fig4Superset = `{
  "name": "fig4",
  "title": "Packet size sweep, GEMM %d",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": {"quick": 512, "full": 2048}},
  "axes": [
    {"axis": "link", "values": [
      {"gbps": 4, "lanes": 4},
      {"gbps": 8, "lanes": 8},
      {"gbps": 16, "lanes": 16},
      {"gbps": 32, "lanes": 16},
      {"gbps": 64, "lanes": 16}
    ]},
    {"axis": "packet_bytes", "values": [32, 64, 128, 256, 512, 1024, 2048, 4096]}
  ],
  "table": {"row": "link", "row_header": "GB/s", "col": "packet_bytes", "cell": "ms3"}
}`

func TestServeConcurrentOverlapMatchesGolden(t *testing.T) {
	// The acceptance e2e: two clients concurrently submit overlapping
	// manifests (fig4 and a superset of it). In-flight dedup must
	// simulate the 35 shared points exactly once — cold counts across
	// both jobs sum to the 40 unique points — and the fig4 job's rows
	// must match the committed golden corpus byte for byte. While both
	// jobs occupy the runners, a queue-full submission bounces with the
	// documented back-pressure status.
	if testing.Short() {
		t.Skip("re-simulates all of fig4; skipped in -short")
	}
	if raceEnabled {
		t.Skip("re-simulates all of fig4 under -race for minutes without adding race coverage")
	}
	fig4, err := os.ReadFile("../../testdata/fig4.json")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := sweep.OpenSalted(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Cache: cache, Concurrency: 2, QueueLimit: 1, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	code, b1, _ := servePost(t, ts.URL, string(fig4), "alice")
	if code != http.StatusAccepted {
		t.Fatalf("fig4 submit: %d %v", code, b1)
	}
	code, b2, _ := servePost(t, ts.URL, fig4Superset, "bob")
	if code != http.StatusAccepted {
		t.Fatalf("superset submit: %d %v", code, b2)
	}

	// Both runners are busy for the next several seconds. One more job
	// fits the queue; the next must be pushed back.
	code, b3, _ := servePost(t, ts.URL, miniManifest, "carol")
	if code != http.StatusAccepted {
		t.Fatalf("queued submit: %d %v", code, b3)
	}
	code, _, hdr := servePost(t, ts.URL, miniManifest, "dave")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("queue-full submit: %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("back-pressure response missing Retry-After")
	}

	st1 := serveWait(t, ts.URL, b1["id"].(string))
	st2 := serveWait(t, ts.URL, b2["id"].(string))
	if st1.State != "done" || st2.State != "done" {
		t.Fatalf("jobs failed: %+v / %+v", st1, st2)
	}
	if st1.Total != 35 || st2.Total != 40 {
		t.Fatalf("totals %d/%d, want 35/40", st1.Total, st2.Total)
	}
	// 40 unique points across both jobs, every one simulated exactly
	// once: the 35-point overlap resolved through the shared cache or
	// in-flight adoption, never by a second simulation.
	if st1.Cold+st2.Cold != 40 {
		t.Fatalf("cold sum %d+%d = %d, want the 40 unique points",
			st1.Cold, st2.Cold, st1.Cold+st2.Cold)
	}
	for _, st := range []serveJobStatus{st1, st2} {
		if st.Cold+st.Warm+st.Shared != st.Completed || st.Completed != st.Total {
			t.Fatalf("job %s counters inconsistent: %+v", st.ID, st)
		}
	}

	golden, err := os.ReadFile("../../testdata/golden/fig4.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := serveGetText(t, ts.URL, st1.ID)
	if got, want := stripNotes(rows), stripNotes(string(golden)); got != want {
		t.Fatalf("served fig4 rows differ from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
	serveWait(t, ts.URL, b3["id"].(string))
}

// slowFeedManifest is a two-point sweep whose cold run takes a few
// hundred milliseconds per point, long enough to outlast a lowered read
// timeout.
const slowFeedManifest = `{
  "name": "slowfeed",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 512},
  "axes": [{"axis": "packet_bytes", "values": [64, 128]}],
  "metrics": ["accel"]
}`

// TestServeEventsOutlastReadTimeout checks the daemon's connection
// timeouts against the ndjson progress feed. The read-side timeouts
// must be set, so a client that stalls mid-header or mid-body cannot
// hold a connection forever, and there is no write timeout. A job's
// event stream must still run past ReadTimeout to its terminal
// snapshot: the test lowers ReadTimeout below the job's run time.
func TestServeEventsOutlastReadTimeout(t *testing.T) {
	cache, err := sweep.OpenSalted(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Cache: cache, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(srv.Handler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts header=%v read=%v idle=%v, want every read-side timeout positive",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want 0: the progress feed is long-lived", hs.WriteTimeout)
	}
	const lowered = 100 * time.Millisecond
	hs.ReadTimeout = lowered
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = hs
	ts.Start()
	t.Cleanup(func() { ts.Close(); srv.Close() })

	code, body, _ := servePost(t, ts.URL, slowFeedManifest, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	resp, err := http.Get(ts.URL + "/sweeps/" + body["id"].(string) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	opened := time.Now()
	var last serveJobStatus
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if err := json.Unmarshal(scanner.Bytes(), &last); err != nil {
			t.Fatalf("event line not JSON: %v", err)
		}
	}
	if last.State != "done" || last.Completed != 2 {
		t.Fatalf("stream ended before the terminal snapshot: %+v", last)
	}
	if open := time.Since(opened); open <= lowered {
		t.Fatalf("stream closed after %v, within the %v read timeout; the job is too quick to test it", open, lowered)
	}
}
