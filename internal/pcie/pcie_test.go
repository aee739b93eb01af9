package pcie

import (
	"bytes"
	"math"
	"testing"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

func TestLinkConfigMath(t *testing.T) {
	gen2 := LinkConfig{Lanes: 4, LaneGbps: 4}
	if gen2.RawGBps() != 2 {
		t.Fatalf("4x4Gbps raw = %v GB/s, want 2", gen2.RawGBps())
	}
	if gen2.EncodingEfficiency() != 0.8 {
		t.Fatal("<=5 Gbps lanes should use 8b/10b")
	}
	gen4 := LinkConfig{Lanes: 16, LaneGbps: 32}
	if gen4.RawGBps() != 64 {
		t.Fatalf("16x32Gbps raw = %v, want 64", gen4.RawGBps())
	}
	if math.Abs(gen4.EncodingEfficiency()-128.0/130.0) > 1e-12 {
		t.Fatal(">5 Gbps lanes should use 128b/130b")
	}
	// Serialization: 1000 bytes at 1.6 GB/s effective = 625 ns.
	l := LinkConfig{Lanes: 4, LaneGbps: 4}
	ser := l.SerTime(1000)
	if ser != 625000 {
		t.Fatalf("SerTime = %v ps, want 625000 (625ns at 1.6 GB/s effective)", uint64(ser))
	}
}

func TestLinkForGBps(t *testing.T) {
	l := LinkForGBps(8, 8)
	if l.RawGBps() != 8 || l.Lanes != 8 || l.LaneGbps != 8 {
		t.Fatalf("LinkForGBps(8,8) = %+v", l)
	}
	if LinkForGBps(2, 4).LaneGbps != 4 {
		t.Fatal("2 GB/s over 4 lanes should be 4 Gbps lanes")
	}
}

// fabric: dma requestor on EP0's DevPort; host memory echo behind the
// RC upstream port; a CSR echo behind EP0's BusPort; host requestor on
// the RC host port.
type fabric struct {
	eq      *sim.EventQueue
	tree    *Tree
	dma     *memtest.Requestor
	host    *memtest.Requestor
	hostMem *memtest.EchoResponder
	csr     *memtest.EchoResponder
	reg     *stats.Registry
}

const (
	hostMemBase = 0x0
	hostMemSize = 1 << 21
	barBase     = 0x1000_0000
	barSize     = 1 << 20
)

func newFabric(t *testing.T, cfg Config) *fabric {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	tree := NewTree("pcie", eq, reg, cfg, []mem.AddrRange{mem.Range(barBase, barSize)})

	f := &fabric{eq: eq, tree: tree, reg: reg}
	f.dma = memtest.NewRequestor(eq)
	mem.Bind(f.dma.Port, tree.EP(0).DevPort())

	f.hostMem = memtest.NewEchoResponder(eq, hostMemBase, hostMemSize, 50*sim.Nanosecond)
	mem.Bind(tree.RC.UpstreamPort(), f.hostMem.Port)

	f.csr = memtest.NewEchoResponder(eq, barBase, barSize, 10*sim.Nanosecond)
	mem.Bind(tree.EP(0).BusPort(), f.csr.Port)

	f.host = memtest.NewRequestor(eq)
	mem.Bind(f.host.Port, tree.RC.HostPort())
	return f
}

func defLink() Config {
	return Config{Link: LinkForGBps(8, 8)}
}

func TestDMAReadRoundtrip(t *testing.T) {
	f := newFabric(t, defLink())
	f.hostMem.Store.Write(0x4000, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	rd := mem.NewRead(0x4000, 8)
	f.dma.Send(rd)
	f.eq.Run()
	if len(f.dma.Done) != 1 {
		t.Fatal("DMA read lost")
	}
	if !bytes.Equal(rd.Data, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("DMA read data %v", rd.Data)
	}
	// Latency sanity: EP+switch+RC latencies (20+50+150)*up +
	// mem 50 + completion path (150..220) — between 300ns and 1.5us.
	if f.dma.DoneAt[0] < 300*sim.Nanosecond || f.dma.DoneAt[0] > 1500*sim.Nanosecond {
		t.Fatalf("DMA read latency %v out of window", f.dma.DoneAt[0])
	}
}

func TestDMAPostedWrite(t *testing.T) {
	f := newFabric(t, defLink())
	payload := []byte{0xca, 0xfe}
	wr := mem.NewWrite(0x8000, payload)
	f.dma.Send(wr)
	f.eq.Run()
	if len(f.dma.Done) != 1 || f.dma.Done[0].Cmd != mem.WriteResp {
		t.Fatal("posted write not acknowledged")
	}
	// Ack at the EP: far faster than a fabric roundtrip.
	if f.dma.DoneAt[0] > 100*sim.Nanosecond {
		t.Fatalf("posted write ack took %v", f.dma.DoneAt[0])
	}
	got := make([]byte, 2)
	f.hostMem.Store.Read(0x8000, got)
	if !bytes.Equal(got, payload) {
		t.Fatalf("posted write data did not land: %v", got)
	}
}

func TestHostMMIORead(t *testing.T) {
	f := newFabric(t, defLink())
	f.csr.Store.Write(0x10, []byte{0xab, 0xcd, 0, 0})
	rd := mem.NewRead(barBase+0x10, 4)
	f.host.Send(rd)
	f.eq.Run()
	if len(f.host.Done) != 1 {
		t.Fatal("MMIO read lost")
	}
	if !bytes.Equal(rd.Data, []byte{0xab, 0xcd, 0, 0}) {
		t.Fatalf("MMIO read data %v", rd.Data)
	}
}

func TestHostMMIOPostedWrite(t *testing.T) {
	f := newFabric(t, defLink())
	wr := mem.NewWrite(barBase+0x20, []byte{7, 7, 7, 7})
	f.host.Send(wr)
	f.eq.Run()
	if len(f.host.Done) != 1 || f.host.Done[0] != wr {
		t.Fatal("host write not acknowledged with original packet")
	}
	got := make([]byte, 4)
	f.csr.Store.Read(0x20, got)
	if !bytes.Equal(got, []byte{7, 7, 7, 7}) {
		t.Fatalf("device CSR did not receive write: %v", got)
	}
}

// streamTime measures the time to DMA-read total bytes in pktSize
// requests.
func streamTime(t *testing.T, cfg Config, pktSize, total int) sim.Tick {
	t.Helper()
	f := newFabric(t, cfg)
	n := total / pktSize
	for i := 0; i < n; i++ {
		f.dma.Send(mem.NewRead(uint64(i*pktSize)%hostMemSize, pktSize))
	}
	f.eq.Run()
	if len(f.dma.Done) != n {
		t.Fatalf("completed %d of %d", len(f.dma.Done), n)
	}
	return f.eq.Now()
}

func TestStreamingApproachesLinkBandwidth(t *testing.T) {
	cfg := defLink() // 8 GB/s raw, ~7.88 effective
	const total = 1 << 19
	elapsed := streamTime(t, cfg, 256, total)
	gbps := float64(total) / elapsed.Seconds() / 1e9
	if gbps < 0.5*cfg.Link.EffectiveGBps() {
		t.Fatalf("streaming achieved %.2f GB/s, below half of link %.2f", gbps, cfg.Link.EffectiveGBps())
	}
	if gbps > cfg.Link.EffectiveGBps()*1.01 {
		t.Fatalf("streaming %.2f GB/s exceeds the link %.2f", gbps, cfg.Link.EffectiveGBps())
	}
}

// TestPacketSizeConvexity reproduces the Fig. 4 shape: both very small
// and very large request sizes are slower than the mid-size optimum.
func TestPacketSizeConvexity(t *testing.T) {
	cfg := defLink()
	const total = 1 << 19
	t64 := streamTime(t, cfg, 64, total)
	t256 := streamTime(t, cfg, 256, total)
	t4096 := streamTime(t, cfg, 4096, total)
	if !(t256 < t64) {
		t.Fatalf("64B (%v) should be slower than 256B (%v)", t64, t256)
	}
	if !(t256 < t4096) {
		t.Fatalf("4096B (%v) should be slower than 256B (%v)", t4096, t256)
	}
}

func TestBandwidthScalesWithLanes(t *testing.T) {
	const total = 1 << 19
	t2 := streamTime(t, Config{Link: LinkForGBps(2, 4)}, 256, total)
	t8 := streamTime(t, Config{Link: LinkForGBps(8, 8)}, 256, total)
	t64 := streamTime(t, Config{Link: LinkForGBps(64, 16)}, 256, total)
	if !(t64 < t8 && t8 < t2) {
		t.Fatalf("bandwidth scaling violated: 2GB/s=%v 8GB/s=%v 64GB/s=%v", t2, t8, t64)
	}
	// 2 -> 8 GB/s quadruples bandwidth; in the memory-bound regime the
	// time ratio should be comfortably above 2x.
	if float64(t2)/float64(t8) < 2 {
		t.Fatalf("2GB/s vs 8GB/s speedup only %.2fx", float64(t2)/float64(t8))
	}
}

func TestCreditStallsOnLargePackets(t *testing.T) {
	f := newFabric(t, defLink())
	for i := 0; i < 32; i++ {
		f.dma.Send(mem.NewRead(uint64(i)*4096, 4096))
	}
	f.eq.Run()
	// Completions (4096+24 B) exceed the switch rx buffer (4096):
	// the RC->switch conn must have stalled on credit.
	if f.tree.RC.down.Stalls == 0 {
		t.Fatal("expected credit stalls for oversize completions")
	}
}

func TestMultiEndpointRouting(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	bar0 := mem.Range(0x1000_0000, 1<<16)
	bar1 := mem.Range(0x2000_0000, 1<<16)
	tree := NewTree("pcie", eq, reg, defLink(), []mem.AddrRange{bar0}, []mem.AddrRange{bar1})

	dev0 := memtest.NewEchoResponder(eq, bar0.Start, bar0.Size(), 10*sim.Nanosecond)
	dev1 := memtest.NewEchoResponder(eq, bar1.Start, bar1.Size(), 10*sim.Nanosecond)
	mem.Bind(tree.EP(0).BusPort(), dev0.Port)
	mem.Bind(tree.EP(1).BusPort(), dev1.Port)

	hostMem := memtest.NewEchoResponder(eq, 0, 1<<20, 30*sim.Nanosecond)
	mem.Bind(tree.RC.UpstreamPort(), hostMem.Port)

	host := memtest.NewRequestor(eq)
	mem.Bind(host.Port, tree.RC.HostPort())

	host.Send(mem.NewWrite(bar0.Start+4, []byte{1}))
	host.Send(mem.NewWrite(bar1.Start+4, []byte{2}))
	eq.Run()
	b := make([]byte, 1)
	dev0.Store.Read(4, b)
	if b[0] != 1 {
		t.Fatalf("dev0 got %d", b[0])
	}
	dev1.Store.Read(4, b)
	if b[0] != 2 {
		t.Fatalf("dev1 got %d", b[0])
	}

	// Upstream DMA from both endpoints: completions route back to the
	// right EP.
	dma0 := memtest.NewRequestor(eq)
	dma1 := memtest.NewRequestor(eq)
	mem.Bind(dma0.Port, tree.EP(0).DevPort())
	mem.Bind(dma1.Port, tree.EP(1).DevPort())
	hostMem.Store.Write(0x100, []byte{0xe0})
	hostMem.Store.Write(0x200, []byte{0xe1})
	r0 := mem.NewRead(0x100, 1)
	r1 := mem.NewRead(0x200, 1)
	dma0.Send(r0)
	dma1.Send(r1)
	eq.Run()
	if len(dma0.Done) != 1 || r0.Data[0] != 0xe0 {
		t.Fatal("EP0 completion misrouted")
	}
	if len(dma1.Done) != 1 || r1.Data[0] != 0xe1 {
		t.Fatal("EP1 completion misrouted")
	}
}

func TestTLPAccounting(t *testing.T) {
	f := newFabric(t, defLink())
	f.dma.Send(mem.NewRead(0, 256))
	f.eq.Run()
	// One MemRd upstream (24B), one Cpl downstream (280B).
	up := f.reg.Lookup("pcie.ep0.bytes_up").Value()
	if up != 24 {
		t.Fatalf("upstream bytes = %v, want 24 (header-only read)", up)
	}
	down := f.reg.Lookup("pcie.rc.bytes_down").Value()
	if down != 280 {
		t.Fatalf("downstream bytes = %v, want 280", down)
	}
}

func TestSwitchCountsBothDirections(t *testing.T) {
	f := newFabric(t, defLink())
	f.dma.Send(mem.NewRead(0, 64))
	f.eq.Run()
	if f.reg.Lookup("pcie.switch.tlps").Value() != 2 {
		t.Fatalf("switch forwarded %v TLPs, want 2", f.reg.Lookup("pcie.switch.tlps").Value())
	}
}

func TestNoLanesPanics(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-lane link should panic")
		}
	}()
	NewTree("pcie", eq, reg, Config{}, []mem.AddrRange{mem.Range(0, 4096)})
}

func TestUnclaimedDownstreamPanics(t *testing.T) {
	f := newFabric(t, defLink())
	defer func() {
		if recover() == nil {
			t.Fatal("downstream request to unclaimed address should panic")
		}
	}()
	f.host.Send(mem.NewRead(0x9999_0000, 4))
	f.eq.Run()
}

func TestCutThroughReducesLatency(t *testing.T) {
	lat := func(cut bool) sim.Tick {
		cfg := defLink()
		cfg.CutThrough = cut
		f := newFabric(t, cfg)
		rd := mem.NewRead(0x1000, 4096)
		f.dma.Send(rd)
		f.eq.Run()
		return f.dma.DoneAt[0]
	}
	sf := lat(false)
	ct := lat(true)
	if ct >= sf {
		t.Fatalf("cut-through (%v) should beat store-and-forward (%v)", ct, sf)
	}
	// A 4 KiB completion serializes ~520ns per hop; cut-through should
	// save roughly one serialization per intermediate hop.
	if sf-ct < 200*sim.Nanosecond {
		t.Fatalf("cut-through saved only %v", sf-ct)
	}
}

func BenchmarkFabricStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eq := sim.NewEventQueue()
		reg := stats.NewRegistry()
		tree := NewTree("pcie", eq, reg, defLink(), []mem.AddrRange{mem.Range(barBase, barSize)})
		dma := memtest.NewRequestor(eq)
		mem.Bind(dma.Port, tree.EP(0).DevPort())
		hostMem := memtest.NewEchoResponder(eq, hostMemBase, hostMemSize, 50*sim.Nanosecond)
		mem.Bind(tree.RC.UpstreamPort(), hostMem.Port)
		for a := uint64(0); a < 1<<18; a += 256 {
			dma.Send(mem.NewRead(a, 256))
		}
		eq.Run()
		b.ReportMetric(float64(eq.Executed), "events")
	}
}

func TestLinkConfigValidate(t *testing.T) {
	if err := (LinkConfig{Lanes: 4, LaneGbps: 4}).Validate(); err != nil {
		t.Fatalf("Table II link rejected: %v", err)
	}
	for _, l := range []LinkConfig{
		{Lanes: 0, LaneGbps: 4},
		{Lanes: -4, LaneGbps: 4},
		{Lanes: 4, LaneGbps: 0},
		{Lanes: 4, LaneGbps: -8},
		LinkForGBps(8, 0), // +Inf per-lane rate
	} {
		if err := l.Validate(); err == nil {
			t.Errorf("%+v accepted", l)
		}
	}
}
