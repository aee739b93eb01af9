package scenario

import (
	"fmt"
	"sort"
	"strings"

	"accesys/internal/core"
	"accesys/internal/dma"
	"accesys/internal/dram"
	"accesys/internal/pcie"
	"accesys/internal/sim"
	"accesys/internal/workload"
)

// presets are the named starting systems (Section V.C plus the bare
// Table II defaults).
var presets = map[string]func() core.Config{
	"default":  func() core.Config { return core.Config{Name: "default"} },
	"pcie2gb":  core.PCIe2GB,
	"pcie8gb":  core.PCIe8GB,
	"pcie64gb": core.PCIe64GB,
	"devmem":   core.DevMemCfg,
}

func presetNames() string { return sortedKeys(presets) }

// Application phases: presets replace the whole config so they apply
// first; placement-aware axes (mem) need the final access mode so they
// apply last. Labels still follow declaration order.
const (
	phasePreset = 0
	phaseField  = 1
	phasePlaced = 2
	maxPhase    = phasePlaced
)

// axisDef is one entry of the axis registry: how to validate a value,
// apply it to a run, and format it as a key fragment (label) or table
// header.
type axisDef struct {
	name   string
	phase  int
	doc    string
	check  func(v Value) error
	apply  func(r *Run, v Value) error
	label  func(v Value) string
	header func(v Value) string
}

// axisRegistry maps axis names to their definitions. To add a new
// swept dimension, add an entry here — manifests and built-in
// scenarios pick it up by name.
var axisRegistry = map[string]*axisDef{}

func axisNames() string { return sortedKeys(axisRegistry) }

func sortedKeys[V any](m map[string]V) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

func register(d *axisDef) {
	if d.header == nil {
		d.header = d.label
	}
	axisRegistry[d.name] = d
}

// Value accessors: axis values arrive canonicalized (JSON semantics),
// so numbers are float64, objects are map[string]any.

func num(v Value) (float64, error) {
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("want a number, got %T", v)
	}
	return f, nil
}

func str(v Value) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("want a string, got %T", v)
	}
	return s, nil
}

func boolean(v Value) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("want a bool, got %T", v)
	}
	return b, nil
}

// obj decodes an object value against a field set; required fields
// must be present, unknown fields are rejected.
func obj(v Value, required []string, optional ...string) (map[string]float64, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("want an object, got %T", v)
	}
	known := map[string]bool{}
	for _, k := range required {
		known[k] = true
	}
	for _, k := range optional {
		known[k] = true
	}
	out := map[string]float64{}
	for k, fv := range m {
		if !known[k] {
			return nil, fmt.Errorf("unknown field %q (want %s)", k, strings.Join(append(required, optional...), " "))
		}
		f, ok := fv.(float64)
		if !ok {
			return nil, fmt.Errorf("field %q: want a number, got %T", k, fv)
		}
		out[k] = f
	}
	for _, k := range required {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("missing field %q", k)
		}
	}
	return out, nil
}

func numCheck(v Value) error { _, err := num(v); return err }

// burstCheck rejects DMA burst sizes the engine cannot run (see
// dma.Config.Validate), so a bad packet axis fails at parse instead
// of panicking inside the simulation.
func burstCheck(v Value) error {
	f, err := num(v)
	if err != nil {
		return err
	}
	return dma.Config{BurstBytes: int(f)}.Validate()
}
func numLabel(v Value) string   { f, _ := num(v); return fmt.Sprintf("%g", f) }
func boolCheck(v Value) error   { _, err := boolean(v); return err }
func stringCheck(v Value) error { _, err := str(v); return err }

func init() {
	register(&axisDef{
		name:  "preset",
		phase: phasePreset,
		doc:   "replace the whole base system with a named preset",
		check: func(v Value) error {
			s, err := str(v)
			if err != nil {
				return err
			}
			if _, ok := presets[s]; !ok {
				return fmt.Errorf("unknown preset %q (want one of %s)", s, presetNames())
			}
			return nil
		},
		apply: func(r *Run, v Value) error {
			s, _ := str(v)
			r.Cfg = presets[s]()
			return nil
		},
		label: func(v Value) string { s, _ := str(v); return s },
		header: func(v Value) string {
			s, _ := str(v)
			return presets[s]().Name
		},
	})

	register(&axisDef{
		name:  "access",
		phase: phaseField,
		doc:   "accelerator data access method: DC, DM, or DevMem",
		check: func(v Value) error {
			_, err := accessByName(v)
			return err
		},
		apply: func(r *Run, v Value) error {
			a, err := accessByName(v)
			if err != nil {
				return err
			}
			r.Cfg.Access = a
			return nil
		},
		label: func(v Value) string { s, _ := str(v); return s },
	})

	register(&axisDef{
		name:  "link",
		phase: phaseField,
		doc:   "PCIe link by total raw bandwidth: {gbps, lanes}",
		check: func(v Value) error {
			_, err := obj(v, []string{"gbps", "lanes"})
			return err
		},
		apply: func(r *Run, v Value) error {
			m, err := obj(v, []string{"gbps", "lanes"})
			if err != nil {
				return err
			}
			r.Cfg.PCIe.Link = pcie.LinkForGBps(m["gbps"], int(m["lanes"]))
			return nil
		},
		label: func(v Value) string {
			m, _ := obj(v, []string{"gbps", "lanes"})
			return fmt.Sprintf("%g", m["gbps"])
		},
	})

	register(&axisDef{
		name:  "lanes",
		phase: phaseField,
		doc:   "PCIe lane count (keeps the per-lane rate)",
		check: numCheck,
		apply: func(r *Run, v Value) error {
			f, _ := num(v)
			r.Cfg.PCIe.Link.Lanes = int(f)
			return nil
		},
		label: numLabel,
	})

	register(&axisDef{
		name:  "lane_gbps",
		phase: phaseField,
		doc:   "per-lane signalling rate in Gbps",
		check: numCheck,
		apply: func(r *Run, v Value) error {
			f, _ := num(v)
			r.Cfg.PCIe.Link.LaneGbps = f
			return nil
		},
		label:  numLabel,
		header: func(v Value) string { f, _ := num(v); return fmt.Sprintf("%gGbps", f) },
	})

	register(&axisDef{
		name:  "packet_bytes",
		phase: phaseField,
		doc:   "host-path DMA burst (request packet) size in bytes",
		check: burstCheck,
		apply: func(r *Run, v Value) error {
			f, _ := num(v)
			r.Cfg.Accel.HostDMA.BurstBytes = int(f)
			return nil
		},
		label:  numLabel,
		header: func(v Value) string { f, _ := num(v); return fmt.Sprintf("%gB", f) },
	})

	register(&axisDef{
		name:  "dev_packet_bytes",
		phase: phaseField,
		doc:   "device-path DMA burst size in bytes",
		check: burstCheck,
		apply: func(r *Run, v Value) error {
			f, _ := num(v)
			r.Cfg.Accel.DevDMA.BurstBytes = int(f)
			return nil
		},
		label:  numLabel,
		header: func(v Value) string { f, _ := num(v); return fmt.Sprintf("%gB", f) },
	})

	register(&axisDef{
		name:  "compute_ns",
		phase: phaseField,
		doc:   "per-tile compute time override in nanoseconds (0 = model)",
		check: numCheck,
		apply: func(r *Run, v Value) error {
			f, _ := num(v)
			r.Cfg.Accel.ComputeOverride = sim.Tick(f) * sim.Nanosecond
			return nil
		},
		label: numLabel,
	})

	register(&axisDef{
		name:  "hostmem",
		phase: phaseField,
		doc:   "host DRAM technology by spec name",
		check: specCheck,
		apply: func(r *Run, v Value) error {
			spec, err := specByName(v)
			if err != nil {
				return err
			}
			r.Cfg.HostSpec = spec
			return nil
		},
		label: func(v Value) string { s, _ := str(v); return s },
	})

	register(&axisDef{
		name:  "devmem",
		phase: phaseField,
		doc:   "device-side DRAM technology by spec name",
		check: specCheck,
		apply: func(r *Run, v Value) error {
			spec, err := specByName(v)
			if err != nil {
				return err
			}
			r.Cfg.DevSpec = spec
			return nil
		},
		label: func(v Value) string { s, _ := str(v); return s },
	})

	register(&axisDef{
		name:  "mem",
		phase: phasePlaced,
		doc:   "DRAM technology applied to the side the accelerator streams from (device under DevMem access, host otherwise)",
		check: specCheck,
		apply: func(r *Run, v Value) error {
			spec, err := specByName(v)
			if err != nil {
				return err
			}
			if r.Cfg.Access == core.DevMem {
				r.Cfg.DevSpec = spec
			} else {
				r.Cfg.HostSpec = spec
			}
			return nil
		},
		label: func(v Value) string { s, _ := str(v); return s },
	})

	register(&axisDef{
		name:  "simplemem",
		phase: phaseField,
		doc:   "fixed-latency host memory: {latency_ns, bandwidth_gbps}",
		check: func(v Value) error {
			_, err := obj(v, []string{"latency_ns", "bandwidth_gbps"})
			return err
		},
		apply: func(r *Run, v Value) error {
			m, err := obj(v, []string{"latency_ns", "bandwidth_gbps"})
			if err != nil {
				return err
			}
			r.Cfg.HostSimple = &core.SimpleMemParams{
				Latency:       sim.TicksFromNanoseconds(m["latency_ns"]),
				BandwidthGBps: m["bandwidth_gbps"],
			}
			return nil
		},
		label: func(v Value) string {
			m, _ := obj(v, []string{"latency_ns", "bandwidth_gbps"})
			return fmt.Sprintf("%g-%g", m["latency_ns"], m["bandwidth_gbps"])
		},
	})

	register(&axisDef{
		name:  "smmu_bypass",
		phase: phaseField,
		doc:   "disable address translation (physical addressing)",
		check: boolCheck,
		apply: func(r *Run, v Value) error {
			b, _ := boolean(v)
			r.Cfg.SMMU.Bypass = b
			return nil
		},
		label: func(v Value) string {
			if b, _ := boolean(v); b {
				return "nommu"
			}
			return "mmu"
		},
	})

	register(&axisDef{
		name:  "smmu",
		phase: phaseField,
		doc:   "SMMU sizing: {utlb_entries, tlb_entries, tlb_assoc, pwc_entries, walkers} (all optional)",
		check: func(v Value) error {
			_, err := obj(v, nil, "utlb_entries", "tlb_entries", "tlb_assoc", "pwc_entries", "walkers")
			return err
		},
		apply: func(r *Run, v Value) error {
			m, err := obj(v, nil, "utlb_entries", "tlb_entries", "tlb_assoc", "pwc_entries", "walkers")
			if err != nil {
				return err
			}
			set := func(dst *int, key string) {
				if f, ok := m[key]; ok {
					*dst = int(f)
				}
			}
			set(&r.Cfg.SMMU.UTLBEntries, "utlb_entries")
			set(&r.Cfg.SMMU.TLBEntries, "tlb_entries")
			set(&r.Cfg.SMMU.TLBAssoc, "tlb_assoc")
			set(&r.Cfg.SMMU.PWCEntries, "pwc_entries")
			set(&r.Cfg.SMMU.Walkers, "walkers")
			return nil
		},
		label: func(v Value) string {
			m, _ := obj(v, nil, "utlb_entries", "tlb_entries", "tlb_assoc", "pwc_entries", "walkers")
			parts := []string{}
			for _, f := range []struct{ key, tag string }{
				{"utlb_entries", "utlb"}, {"tlb_entries", "tlb"}, {"tlb_assoc", "assoc"},
				{"pwc_entries", "pwc"}, {"walkers", "walkers"},
			} {
				if val, ok := m[f.key]; ok {
					parts = append(parts, fmt.Sprintf("%s%g", f.tag, val))
				}
			}
			return strings.Join(parts, "-")
		},
	})

	register(&axisDef{
		name:  "size",
		phase: phaseField,
		doc:   "square GEMM size, overriding the workload's n",
		check: numCheck,
		apply: func(r *Run, v Value) error {
			f, _ := num(v)
			r.N = int(f)
			return nil
		},
		label: numLabel,
	})

	register(&axisDef{
		name:  "model",
		phase: phaseField,
		doc:   "ViT model variant by name",
		check: func(v Value) error {
			_, err := modelByName(v)
			return err
		},
		apply: func(r *Run, v Value) error {
			m, err := modelByName(v)
			if err != nil {
				return err
			}
			r.Model = m
			return nil
		},
		label: func(v Value) string { s, _ := str(v); return s },
	})

	register(&axisDef{
		name:  "accelerators",
		phase: phaseField,
		doc:   "accelerator cluster size (endpoints sharing the switch)",
		check: numCheck,
		apply: func(r *Run, v Value) error {
			f, _ := num(v)
			r.Cfg.Accelerators = int(f)
			return nil
		},
		label: numLabel,
	})

	register(&axisDef{
		name:  "cluster",
		phase: phaseField,
		doc:   "heterogeneous cluster composition: [{kind, n}, ...] slots expanding to consecutive endpoints (overrides accelerators)",
		check: func(v Value) error {
			_, err := clusterOf(v)
			return err
		},
		apply: func(r *Run, v Value) error {
			slots, err := clusterOf(v)
			if err != nil {
				return err
			}
			r.Cfg.Cluster = slots
			return nil
		},
		label: func(v Value) string {
			slots, _ := clusterOf(v)
			parts := make([]string, len(slots))
			for i, s := range slots {
				parts[i] = fmt.Sprintf("%s%d", s.Kind, s.N)
			}
			return strings.Join(parts, "-")
		},
	})

	register(&axisDef{
		name:  "topology",
		phase: phaseField,
		doc:   `PCIe tree shape: "flat" (one switch) or {levels: 2, fanout} (leaf switches below a root)`,
		check: func(v Value) error {
			_, err := topologyOf(v)
			return err
		},
		apply: func(r *Run, v Value) error {
			t, err := topologyOf(v)
			if err != nil {
				return err
			}
			r.Cfg.PCIe.Topology = t
			return nil
		},
		label: func(v Value) string {
			t, _ := topologyOf(v)
			if t.Flat() {
				return "flat"
			}
			return fmt.Sprintf("t%dx%d", t.Levels, t.Fanout)
		},
	})
}

// clusterOf decodes a cluster axis value: a non-empty array of
// {kind, n} slot objects summing to at most maxClusterAccels members.
const maxClusterAccels = 8

func clusterOf(v Value) ([]core.ClusterSlot, error) {
	arr, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("want an array of {kind, n} slots, got %T", v)
	}
	if len(arr) == 0 {
		return nil, fmt.Errorf("cluster composition needs at least one slot")
	}
	slots := make([]core.ClusterSlot, 0, len(arr))
	total := 0
	for i, e := range arr {
		m, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("slot %d: want an object, got %T", i, e)
		}
		var s core.ClusterSlot
		for k, fv := range m {
			switch k {
			case "kind":
				kind, ok := fv.(string)
				if !ok {
					return nil, fmt.Errorf("slot %d: kind: want a string, got %T", i, fv)
				}
				s.Kind = kind
			case "n":
				f, ok := fv.(float64)
				if !ok {
					return nil, fmt.Errorf("slot %d: n: want a number, got %T", i, fv)
				}
				s.N = int(f)
			default:
				return nil, fmt.Errorf("slot %d: unknown field %q (want kind n)", i, k)
			}
		}
		total += s.N
		slots = append(slots, s)
	}
	if err := core.ValidateCluster(slots); err != nil {
		return nil, err
	}
	if total > maxClusterAccels {
		return nil, fmt.Errorf("cluster totals %d accelerators (max %d)", total, maxClusterAccels)
	}
	return slots, nil
}

// topologyOf decodes a topology axis value: the string "flat" or a
// {levels, fanout} object.
func topologyOf(v Value) (pcie.Topology, error) {
	if s, ok := v.(string); ok {
		if s == "flat" {
			return pcie.Topology{}, nil
		}
		return pcie.Topology{}, fmt.Errorf("unknown topology %q (want \"flat\" or {levels, fanout})", s)
	}
	m, err := obj(v, []string{"levels", "fanout"})
	if err != nil {
		return pcie.Topology{}, err
	}
	t := pcie.Topology{Levels: int(m["levels"]), Fanout: int(m["fanout"])}
	if err := t.Validate(); err != nil {
		return pcie.Topology{}, err
	}
	return t, nil
}

func accessByName(v Value) (core.AccessMethod, error) {
	s, err := str(v)
	if err != nil {
		return 0, err
	}
	switch s {
	case "DC":
		return core.DC, nil
	case "DM":
		return core.DM, nil
	case "DevMem":
		return core.DevMem, nil
	}
	return 0, fmt.Errorf("unknown access method %q (want DC, DM, or DevMem)", s)
}

func specCheck(v Value) error {
	_, err := specByName(v)
	return err
}

func specByName(v Value) (dram.Spec, error) {
	s, err := str(v)
	if err != nil {
		return dram.Spec{}, err
	}
	spec, ok := dram.SpecByName(s)
	if !ok {
		return dram.Spec{}, fmt.Errorf("unknown DRAM spec %q", s)
	}
	return spec, nil
}

func modelByName(v Value) (workload.ViTVariant, error) {
	s, err := str(v)
	if err != nil {
		return workload.ViTVariant{}, err
	}
	for _, m := range workload.Variants() {
		if m.Name == s {
			return m, nil
		}
	}
	return workload.ViTVariant{}, fmt.Errorf("unknown ViT model %q", s)
}
