package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// golden manifests that must stay equivalent to their built-in
// definitions.
var goldenManifests = []string{"fig4", "fig6", "fig7", "tab4"}

// TestGoldenManifestsMatchBuiltins is the manifest/built-in
// equivalence contract behind the byte-identity acceptance: a loaded
// manifest expands to runs deeply equal to the built-in scenario's —
// same configs, same keys, same workload parameters — and its points
// carry the same fingerprints. Identical points through the shared
// renderer mean `accesys sweep testdata/fig4.json` emits rows
// byte-identical to `accesys run fig4` without re-simulating here.
func TestGoldenManifestsMatchBuiltins(t *testing.T) {
	for _, name := range goldenManifests {
		loaded, err := Load(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		builtin := MustBuiltin(name)
		for _, full := range []bool{false, true} {
			lruns, err := loaded.Expand(full)
			if err != nil {
				t.Fatalf("%s (full=%v): %v", name, full, err)
			}
			bruns, err := builtin.Expand(full)
			if err != nil {
				t.Fatalf("%s (full=%v): %v", name, full, err)
			}
			if !reflect.DeepEqual(lruns, bruns) {
				t.Fatalf("%s (full=%v): manifest runs differ from built-in", name, full)
			}
			lp, bp := loaded.Points(lruns), builtin.Points(bruns)
			for i := range lp {
				if lp[i].Fingerprint != bp[i].Fingerprint {
					t.Fatalf("%s point %d (%s): fingerprints differ", name, i, lp[i].Key)
				}
			}
			if loaded.TitleFor(full) != builtin.TitleFor(full) {
				t.Fatalf("%s: titles differ", name)
			}
			if loaded.Table != builtin.Table {
				t.Fatalf("%s: table specs differ", name)
			}
		}
	}
}

// TestRootManifestInSyncWithGolden keeps the CLI-facing copy at
// testdata/fig4.json (repo root) from drifting out of sync with the
// golden one the tests pin.
func TestRootManifestInSyncWithGolden(t *testing.T) {
	root, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root, golden) {
		t.Fatal("testdata/fig4.json (repo root) differs from internal/scenario/testdata/fig4.json")
	}
}

// TestRootSmokeManifestLoads keeps the CI smoke manifest valid.
func TestRootSmokeManifestLoads(t *testing.T) {
	sc, err := Load(filepath.Join("..", "..", "testdata", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("smoke manifest has %d runs, want 4", len(runs))
	}
}

// TestLoadErrors exercises the malformed-manifest paths.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		file, want string
	}{
		{"bad-unknown-axis.json", "unknown axis"},
		{"bad-empty-axis.json", "empty matrix"},
		{"bad-oversize-burst.json", `axis "packet_bytes": burst 8192 exceeds page size`},
	}
	for _, tc := range cases {
		_, err := Load(filepath.Join("testdata", tc.file))
		if err == nil {
			t.Errorf("%s: no error", tc.file)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.file, err, tc.want)
		}
	}
	if _, err := Load(filepath.Join("testdata", "no-such-file.json")); err == nil {
		t.Error("missing file: no error")
	}
}

// TestParseErrors covers decode-level failures manifest files can't
// cleanly represent.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, data, want string
	}{
		{"syntax", `{"name": `, "manifest"},
		{"unknown field", `{"name": "x", "flavour": "grape"}`, "unknown field"},
		{"trailing data", `{"name": "x", "workload": {"kind": "gemm", "n": 64}} {"again": true}`, "trailing data"},
		{"trailing garbage", `{"name": "x", "workload": {"kind": "gemm", "n": 64}} }`, "trailing data"},
		{"bad size", `{"name": "x", "workload": {"kind": "gemm", "n": "big"}}`, "cannot unmarshal"},
		{"oversize dev burst", `{"name": "x", "workload": {"kind": "gemm", "n": 64},
			"axes": [{"axis": "lanes", "values": [4]}],
			"defaults": [{"axis": "dev_packet_bytes", "value": 8192}]}`, `defaults "dev_packet_bytes": burst 8192 exceeds page size`},
		{"negative burst", `{"name": "x", "workload": {"kind": "gemm", "n": 64},
			"axes": [{"axis": "dev_packet_bytes", "values": [-64]}]}`, `axis "dev_packet_bytes": burst -64 must be positive`},
		// Axis values that would panic inside the simulation if they
		// passed parse (an event scheduled in the past, an unrunnable
		// link, an unencodable fingerprint, a switch with no endpoints).
		{"negative compute", axisManifest("compute_ns", "-5"), `axis "compute_ns": -5 must not be negative`},
		{"negative lanes", axisManifest("lanes", "-4"), `axis "lanes": link needs at least one lane`},
		{"zero lane rate", axisManifest("lane_gbps", "0"), `axis "lane_gbps": link needs a positive finite lane rate`},
		{"negative lane rate", axisManifest("lane_gbps", "-8"), `axis "lane_gbps": link needs a positive finite lane rate`},
		{"zero link bandwidth", axisManifest("link", `{"gbps": 0, "lanes": 8}`), `axis "link": link needs a positive finite lane rate`},
		{"negative link bandwidth", axisManifest("link", `{"gbps": -8, "lanes": 8}`), `axis "link": link needs a positive finite lane rate`},
		{"laneless link", axisManifest("link", `{"gbps": 8, "lanes": 0}`), `axis "link": link needs at least one lane`},
		{"negative accelerators", axisManifest("accelerators", "-1"), `axis "accelerators": -1 must not be negative`},
		{"negative lanes default", `{"name": "x", "workload": {"kind": "gemm", "n": 32},
			"axes": [{"axis": "packet_bytes", "values": [64]}],
			"defaults": [{"axis": "lanes", "value": -4}]}`, `defaults "lanes": link needs at least one lane`},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.data))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// axisManifest is a one-axis GEMM-32 manifest sweeping axis over the
// single JSON value v, plus a packet-size axis.
func axisManifest(axis, v string) string {
	return `{"name": "x", "workload": {"kind": "gemm", "n": 32}, "axes": [
		{"axis": "` + axis + `", "values": [` + v + `]},
		{"axis": "packet_bytes", "values": [64]}]}`
}

// TestManifestJSONRoundTrip re-encodes a loaded manifest and loads it
// again: the declarative model survives a marshal cycle, so tooling
// can generate manifests from Go values.
func TestManifestJSONRoundTrip(t *testing.T) {
	loaded, err := Load(filepath.Join("testdata", "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	r1, err := loaded.Expand(true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := again.Expand(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("round-tripped manifest expands differently")
	}
}
