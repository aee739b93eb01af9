// Package pcie models the standard PCIe interconnect that
// Gem5-AcceSys adds to gem5: a Root Complex (RC), a Switch, and
// Endpoints (EPs) joined by links with configurable lane count and
// per-lane rate. Transactions travel as TLPs with header/framing
// overhead, store-and-forward per hop, per-hop processing latency and
// initiation interval, and credit-based receiver buffers — together
// these produce the paper's observed behaviours: bandwidth scaling
// with lanes x rate (Fig. 3) and the convex packet-size curve where
// small packets pay header/processing overhead and large packets stall
// the hop pipeline (Fig. 4).
package pcie

import (
	"fmt"
	"math"

	"accesys/internal/mem"
	"accesys/internal/sim"
)

// LinkConfig describes one PCIe link (both directions symmetric).
type LinkConfig struct {
	Lanes    int
	LaneGbps float64
	// PropDelay is the flight latency of the wire (default 5 ns).
	PropDelay sim.Tick
}

// Validate reports a link the fabric cannot run: it needs at least one
// lane and a positive, finite per-lane rate.
func (l LinkConfig) Validate() error {
	if l.Lanes < 1 {
		return fmt.Errorf("link needs at least one lane, have %d", l.Lanes)
	}
	if !(l.LaneGbps > 0) || math.IsInf(l.LaneGbps, 1) {
		return fmt.Errorf("link needs a positive finite lane rate, have %g Gbps", l.LaneGbps)
	}
	return nil
}

// EncodingEfficiency returns the line-coding efficiency: 8b/10b for
// gen1/2 rates (<= 5 GT/s), 128b/130b above.
func (l LinkConfig) EncodingEfficiency() float64 {
	if l.LaneGbps <= 5 {
		return 0.8
	}
	return 128.0 / 130.0
}

// RawGBps returns lanes x rate in gigabytes per second before coding.
func (l LinkConfig) RawGBps() float64 {
	return float64(l.Lanes) * l.LaneGbps / 8
}

// EffectiveGBps returns the post-encoding data bandwidth.
func (l LinkConfig) EffectiveGBps() float64 {
	return l.RawGBps() * l.EncodingEfficiency()
}

// SerTime returns the time to serialize n bytes onto the link.
func (l LinkConfig) SerTime(n int) sim.Tick {
	gbps := l.EffectiveGBps()
	if gbps <= 0 {
		panic("pcie: link has zero bandwidth")
	}
	return sim.Tick(float64(n)*1000/gbps + 0.5)
}

// LinkForGBps builds a link totaling the given raw bandwidth out of a
// given lane count (paper configs: 2 GB/s = 4x4Gbps, 8 GB/s = 8x8Gbps,
// 64 GB/s = 16x32Gbps).
func LinkForGBps(gbps float64, lanes int) LinkConfig {
	return LinkConfig{Lanes: lanes, LaneGbps: gbps * 8 / float64(lanes), PropDelay: 5 * sim.Nanosecond}
}

// TLPKind enumerates transaction-layer packet kinds.
type TLPKind uint8

// TLP kinds: memory read request (header only), memory write request
// (posted, carries payload), completion with data.
const (
	MemRd TLPKind = iota
	MemWr
	Cpl
)

// String implements fmt.Stringer.
func (k TLPKind) String() string {
	switch k {
	case MemRd:
		return "MemRd"
	case MemWr:
		return "MemWr"
	default:
		return "Cpl"
	}
}

// TLP is a transaction-layer packet in flight on the fabric.
type TLP struct {
	Kind  TLPKind
	Pkt   *mem.Packet
	Bytes int // wire size: header + payload
	SrcEP int // originating endpoint (upstream traffic)
	DstEP int // destination endpoint (downstream completions)

	// ev is the TLP's reusable step event: it drives every scheduled
	// hop of the journey (send after bridge processing, forward at the
	// switch, delivery at the end of a link, unwrap at the far
	// bridge). The stages of one TLP never overlap in the event queue,
	// so a single event suffices — and because each stage is scheduled
	// by exactly one ScheduleEvent call where a closure Schedule used
	// to be, the (tick, priority, seq) dispatch order is unchanged.
	ev    *sim.Event
	stage tlpStage

	sendConn *conn        // stageSend: egress after bridge processing
	fwd      *Switch      // stageForward: forwarding switch
	fwdFrom  *conn        // ingress credit to release once egress tx completes
	fwdUp    bool         // stageForward direction
	dlvFrom  *conn        // conn that delivered (stageDeliver and unwrap)
	dlvEP    *Endpoint    // stageEPUnwrap target
	dlvRC    *RootComplex // stageRCUnwrap target

	// releaseConn is the pending previous-hop credit release, consumed
	// when the TLP starts transmitting on the next conn (replaces the
	// old per-TLP onTxDone closure).
	releaseConn *conn

	// Credit claims held on conns. A TLP traverses at most three links
	// per direction (RC-root, root-leaf, leaf-EP in a 2-level tree),
	// and under cut-through every hop of the journey can hold its claim
	// concurrently; four slots cover that worst case with headroom.
	claimConn [4]*conn
	claimN    [4]int

	// retired marks a TLP whose journey ended while a hop still held a
	// credit claim on it (possible under cut-through, where delivery
	// can precede the egress txDone); the final release recycles it.
	retired bool
	pool    *tlpPool
}

// tlpStage selects what the TLP's step event does when it fires.
type tlpStage uint8

const (
	stageIdle tlpStage = iota
	stageSend
	stageForward
	stageDeliver
	stageEPUnwrap
	stageRCUnwrap
)

// step dispatches the TLP's current pipeline stage.
func (t *TLP) step() {
	switch t.stage {
	case stageSend:
		c := t.sendConn
		t.sendConn = nil
		c.send(t)
	case stageForward:
		s := t.fwd
		out := s.route(t, t.fwdUp)
		t.releaseConn = t.fwdFrom
		t.fwd, t.fwdFrom = nil, nil
		out.send(t)
	case stageDeliver:
		c := t.dlvFrom
		c.dst.deliverTLP(c, t)
	case stageEPUnwrap:
		t.dlvEP.unwrap(t)
	case stageRCUnwrap:
		t.dlvRC.unwrap(t)
	default:
		panic("pcie: TLP stepped while idle")
	}
}

// claim records credit held on c.
func (t *TLP) claim(c *conn, n int) {
	for i := range t.claimConn {
		if t.claimConn[i] == nil {
			t.claimConn[i] = c
			t.claimN[i] = n
			return
		}
	}
	panic(fmt.Sprintf("pcie: TLP holds too many credit claims (%s)", c.name))
}

// unclaim removes and returns the credit held on c.
func (t *TLP) unclaim(c *conn) int {
	for i := range t.claimConn {
		if t.claimConn[i] == c {
			n := t.claimN[i]
			t.claimConn[i] = nil
			t.claimN[i] = 0
			return n
		}
	}
	panic(fmt.Sprintf("pcie: %s releasing unclaimed TLP", c.name))
}

// idle reports whether no hop holds a credit claim on t.
func (t *TLP) idle() bool {
	for i := range t.claimConn {
		if t.claimConn[i] != nil {
			return false
		}
	}
	return true
}

// tlpPool recycles TLPs (and their bound step events) within one
// fabric. It is single-threaded like the event queue it schedules on;
// pooling per tree keeps each TLP's event on its own queue.
type tlpPool struct{ free []*TLP }

// get leases a zeroed TLP whose step event is bound to eq.
func (p *tlpPool) get(eq *sim.EventQueue) *TLP {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return t
	}
	t := &TLP{pool: p}
	t.ev = eq.NewEvent("pcie.tlp", t.step)
	return t
}

// put recycles a TLP whose journey ended. If a hop still holds a
// credit claim (cut-through can deliver before the egress txDone),
// recycling is deferred to the last release.
func (p *tlpPool) put(t *TLP) {
	if !t.idle() {
		t.retired = true
		return
	}
	ev := t.ev
	*t = TLP{ev: ev, pool: p}
	p.free = append(p.free, t)
}

// receiver consumes TLPs delivered by a conn.
type receiver interface {
	deliverTLP(c *conn, t *TLP)
}

// conn is one simplex link channel with credit-gated, serialized
// transmission. The receiver's buffer credit is consumed when a TLP
// starts transmitting and must be released by the receiving hop once
// the TLP has fully left it (store-and-forward back-pressure).
type conn struct {
	name string
	eq   *sim.EventQueue
	link LinkConfig
	dst  receiver

	// cutThroughHdr, when nonzero, delivers the TLP to the receiver
	// once that many bytes have serialized (cut-through) instead of
	// after the full TLP (store-and-forward).
	cutThroughHdr int

	capacity int // receiver buffer size in bytes
	credit   int

	// q[qh:] is the transmission queue; popping advances qh so the
	// backing array's capacity is reused.
	q  []*TLP
	qh int

	txBusy bool
	// Transmission-completion state for the single in-flight tx: the
	// persistent txDone event fires once per transmission, releasing
	// the previous hop's claim (txRel) for the TLP that just left
	// (txTLP).
	txDoneEv *sim.Event
	txRel    *conn
	txTLP    *TLP

	// OnDrain fires after each TLP begins transmission (queue slot
	// freed); admission layers use it to wake refused senders.
	OnDrain func()

	// Stalls counts credit stalls for statistics.
	Stalls uint64
}

func newConn(name string, eq *sim.EventQueue, link LinkConfig, dst receiver, bufBytes int) *conn {
	if link.PropDelay == 0 {
		link.PropDelay = 5 * sim.Nanosecond
	}
	c := &conn{name: name, eq: eq, link: link, dst: dst,
		capacity: bufBytes, credit: bufBytes}
	c.txDoneEv = eq.NewEvent(name+".txdone", c.txDone)
	return c
}

// send enqueues a TLP for transmission.
func (c *conn) send(t *TLP) {
	c.q = append(c.q, t)
	c.kick()
}

// queued reports TLPs waiting to start transmission.
func (c *conn) queued() int { return len(c.q) - c.qh }

func (c *conn) kick() {
	if c.txBusy || c.qh == len(c.q) {
		return
	}
	t := c.q[c.qh]
	// Oversize TLPs (bigger than the receiver buffer) claim the whole
	// buffer rather than deadlocking.
	need := t.Bytes
	if need > c.capacity {
		need = c.capacity
	}
	if c.credit < need {
		c.Stalls++
		return // resumed by release()
	}
	c.credit -= need
	t.claim(c, need)
	c.q[c.qh] = nil
	c.qh++
	if c.qh == len(c.q) {
		c.q = c.q[:0]
		c.qh = 0
	} else if c.qh >= 32 && c.qh*2 >= len(c.q) {
		n := copy(c.q, c.q[c.qh:])
		clear(c.q[n:])
		c.q = c.q[:n]
		c.qh = 0
	}
	c.txBusy = true

	ser := c.link.SerTime(t.Bytes)
	// Consume the pending release now: with cut-through delivery the
	// next hop may install its own before this transmission finishes.
	c.txRel = t.releaseConn
	c.txTLP = t
	t.releaseConn = nil
	c.eq.ScheduleEvent(c.txDoneEv, c.eq.Now()+ser, sim.PriorityDefault)
	deliverAt := ser
	if c.cutThroughHdr > 0 && t.Bytes > c.cutThroughHdr {
		deliverAt = c.link.SerTime(c.cutThroughHdr)
	}
	t.stage = stageDeliver
	t.dlvFrom = c
	c.eq.ScheduleEvent(t.ev, c.eq.Now()+deliverAt+c.link.PropDelay, sim.PriorityDefault)
}

// txDone completes the in-flight transmission: the line is free for
// the next TLP and the previous hop's buffer credit can be returned.
func (c *conn) txDone() {
	c.txBusy = false
	rel, t := c.txRel, c.txTLP
	c.txRel, c.txTLP = nil, nil
	if rel != nil {
		rel.release(t)
	}
	if c.OnDrain != nil {
		c.OnDrain()
	}
	c.kick()
}

// release returns buffer credit after a TLP fully leaves the receiving
// hop.
func (c *conn) release(t *TLP) {
	c.credit += t.unclaim(c)
	if c.credit > c.capacity {
		panic(fmt.Sprintf("pcie: %s credit overflow (%d > %d)", c.name, c.credit, c.capacity))
	}
	if t.retired && t.idle() {
		t.pool.put(t)
	}
	c.kick()
}
