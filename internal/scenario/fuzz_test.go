package scenario

// Native fuzz target for the manifest parser: arbitrary bytes must
// never panic Parse, and any manifest it accepts must round-trip
// Parse -> Marshal -> Parse with byte-stable output — the property
// that lets tooling regenerate manifests from loaded scenarios. Seeded
// from every committed manifest (this package's testdata plus the
// repo-root testdata the CLI ships). Run `make fuzz` for a short
// exploration; plain `go test` replays the seed corpus.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func FuzzManifestParse(f *testing.F) {
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "testdata")} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, de := range entries {
			if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err == nil {
				f.Add(data)
			}
		}
	}
	f.Add([]byte(`{"name":"t","workload":{"kind":"gemm","n":64},"axes":[{"axis":"lanes","values":[1]}]}`))
	f.Add([]byte(`{"name":"v","workload":{"kind":"vit"},"axes":[{"axis":"model","values":["vit-base"]}]}`))
	// Heterogeneous stanzas: cluster compositions, topology shapes (both
	// spellings), and tenant schedules — including edge shapes the
	// committed manifests don't cover.
	f.Add([]byte(`{"name":"f","workload":{"kind":"farm","n":64},"axes":[{"axis":"cluster","values":[[{"kind":"gemm","n":1}]]}]}`))
	f.Add([]byte(`{"name":"f2","workload":{"kind":"farm","n":64},"axes":[{"axis":"cluster","values":[[{"kind":"cycle","n":8}]]},{"axis":"topology","values":["flat",{"levels":2,"fanout":1}]}]}`))
	f.Add([]byte(`{"name":"f3","workload":{"kind":"farm","n":64},"axes":[{"axis":"topology","values":[{"levels":2,"fanout":9}]}],"defaults":[{"axis":"accelerators","value":3}]}`))
	f.Add([]byte(`{"name":"bad","workload":{"kind":"farm","n":64},"axes":[{"axis":"cluster","values":[[{"kind":"tpu","n":1}],[{"kind":"gemm","n":0}],[{"kind":"gemm","n":99}]]}]}`))
	f.Add([]byte(`{"name":"badtop","workload":{"kind":"gemm","n":64},"axes":[{"axis":"topology","values":[{"levels":3},{"levels":2},{"fanout":2},"ring"]}]}`))
	f.Add([]byte(`{"name":"ten","workload":{"kind":"tenants","tenants":[{"n":64,"jobs":2},{"n":{"quick":32,"full":128}}]},"defaults":[{"axis":"accelerators","value":2}]}`))
	f.Add([]byte(`{"name":"ten1","workload":{"kind":"tenants","tenants":[{"n":64}]}}`))
	// DMA bursts past the page size must be rejected, not panic later.
	f.Add([]byte(`{"name":"burst","workload":{"kind":"gemm","n":64},"axes":[{"axis":"dev_packet_bytes","values":[64,8192]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // invalid input rejected cleanly is the contract
		}
		m1, err := Marshal(s)
		if err != nil {
			t.Fatalf("accepted manifest fails to marshal: %v", err)
		}
		s2, err := Parse(m1)
		if err != nil {
			t.Fatalf("marshal output does not re-parse: %v\n%s", err, m1)
		}
		m2, err := Marshal(s2)
		if err != nil {
			t.Fatalf("re-parsed manifest fails to marshal: %v", err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("round trip unstable:\n--- first\n%s\n--- second\n%s", m1, m2)
		}
	})
}
