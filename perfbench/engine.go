package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/frontend"
	"nfvnice/internal/proto"
)

const (
	maxBatch       = 32
	quiesceTimeout = 10 * time.Second
	windowPoll     = time.Millisecond
	// spinUntil is how far ahead of the next due time the polling
	// generator stops sleeping and polls the clock, yielding with
	// runtime.Gosched like a polling RX loop: time.Sleep overshoots by
	// about a millisecond when the process is idle. Polling keeps one P
	// busy, which stops that P from stealing engine goroutines queued on
	// the other; meta.json (generator) records what that costs.
	spinUntil = 2 * time.Millisecond
)

var (
	srcMAC = proto.MAC{0x02, 0, 0, 0, 0, 0x01}
	dstMAC = proto.MAC{0x02, 0, 0, 0, 0, 0x02}
)

// bench is one engine built for a workload, with the generator and sink
// that drive and check it.
type bench struct {
	w     *workload
	in    *inputs
	e     *dataplane.Engine
	h     *dataplane.ProducerHandle
	cache *dataplane.PacketCache
	dir   *frontend.Director
	sink  *sink
	g     *gen
	tr    *tracer // nil on untraced engines
	epoch time.Time

	cancel context.CancelFunc
	done   chan struct{}
}

// now is the benchmark clock: monotonic nanoseconds since the engine's epoch.
func (b *bench) now() int64 { return int64(time.Since(b.epoch)) }

// setup builds and starts an engine at the default config plus FrameSize,
// warms its freelist and the NF and flow tables with every flow, and waits
// until the warm-up traffic has drained. The returned duration is the
// benchmark's set-up time.
func setup(w *workload, in *inputs, tr *tracer) (*bench, time.Duration, error) {
	t0 := time.Now()
	cfg := dataplane.DefaultConfig()
	cfg.FrameSize = w.frameSize
	if tr != nil {
		cfg.TraceSampleShift = traceSampleShift
	}
	b := &bench{w: w, in: in, tr: tr, epoch: t0, done: make(chan struct{})}
	b.e = dataplane.New(cfg)
	ids := make([]int, len(w.stages))
	for slot, name := range w.stages {
		fn := w.handler(slot)
		if tr != nil {
			fn = tr.wrap(slot, fn)
		}
		// Stage ids index Stats and span hops; the slots rely on them
		// matching.
		if ids[slot] = b.e.AddBatchStage(name, 1024, fn); ids[slot] != slot {
			return nil, 0, fmt.Errorf("stage %s got id %d, want %d", name, ids[slot], slot)
		}
	}
	for _, st := range in.streams {
		path := make([]int, len(st.slots))
		for i, s := range st.slots {
			path[i] = ids[s]
		}
		ch, err := b.e.AddChain(path...)
		if err != nil {
			return nil, 0, fmt.Errorf("add chain %s: %w", st.name, err)
		}
		b.e.MapFlow(st.chain, ch)
	}
	b.sink = newSink(b)
	b.e.SetSink(b.sink.deliver)
	if tr != nil {
		b.e.SetSpanSink(tr.span)
	}
	if w.directorCap > 0 {
		b.dir = frontend.NewDirector(1, w.directorCap)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	go func() {
		defer close(b.done)
		b.e.Run(ctx)
	}()
	b.h = b.e.ProducerHandle(0)
	b.cache = b.e.NewPacketCache(4 * maxBatch)
	b.g = newGen(b, closedWindow)
	if err := b.g.warm(); err != nil {
		b.stop()
		return nil, 0, err
	}
	return b, time.Since(t0), nil
}

// stop cancels Run, waits for it to return and checks that the ledger
// closes: every accepted packet is accounted for.
func (b *bench) stop() error {
	b.cancel()
	<-b.done
	if l := b.e.LedgerSnapshot(); l.Residual() != 0 {
		return fmt.Errorf("ledger residual %d after Run returned: %+v", l.Residual(), l)
	}
	return nil
}

// quiesce waits until every packet the generator handed to the lane has
// left the engine and the sink has seen every delivery.
func (b *bench) quiesce() error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		l := b.e.LedgerSnapshot()
		routed := l.Injected + l.EntryDrops + l.FaultEntryDrops + (l.RingDrops - l.MidRingDrops) + l.LateDrops
		if b.h.Len() == 0 && routed == b.g.laneAccepted && l.Residual() == 0 && b.sink.delivered() == l.Delivered {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine did not quiesce within %v: lane=%d routed=%d accepted=%d sink=%d ledger=%+v",
				quiesceTimeout, b.h.Len(), routed, b.g.laneAccepted, b.sink.delivered(), l)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// --- frame header ---------------------------------------------------------

func putHeader(b []byte, flow, seq uint32, due int64, lane uint32) {
	binary.BigEndian.PutUint32(b[0:4], flow)
	binary.BigEndian.PutUint32(b[4:8], seq)
	binary.BigEndian.PutUint64(b[8:16], uint64(due))
	binary.BigEndian.PutUint32(b[16:20], lane)
	binary.BigEndian.PutUint16(b[20:22], headerSum(b))
}

// headerSum mixes the header's five words into 16 bits, so any corrupted
// bit in them is caught with high probability.
func headerSum(b []byte) uint16 {
	h := uint64(binary.BigEndian.Uint32(b[0:4]))*0x9E3779B97F4A7C15 ^
		uint64(binary.BigEndian.Uint32(b[4:8]))*0xC2B2AE3D27D4EB4F ^
		binary.BigEndian.Uint64(b[8:16])*0x165667B19E3779F9 ^
		uint64(binary.BigEndian.Uint32(b[16:20]))*0xD6E8FEB86659FD93
	h ^= h >> 31
	return uint16(h ^ h>>16 ^ h>>32 ^ h>>48)
}

// --- sink -----------------------------------------------------------------

// sink verifies every delivered frame, records its latency from the due
// time in the header, and recycles it. Movers call it, concurrently when
// the engine runs more than one, so its state sits behind a mutex.
type sink struct {
	b          *bench
	flowStream []uint8
	phase      atomic.Int32
	intact     []atomic.Uint64 // per stream, cumulative
	corrupt    atomic.Uint64
	reorder    atomic.Uint64
	// waiting is set while the closed-loop generator is blocked on wake
	// for a window slot; deliver then signals wake.
	waiting atomic.Bool
	wake    chan struct{}

	mu      sync.Mutex
	lastSeq []int64
	lat     [nPhases][]*hist // per phase, per stream
}

func newSink(b *bench) *sink {
	s := &sink{b: b, intact: make([]atomic.Uint64, len(b.in.streams)), wake: make(chan struct{}, 1)}
	s.phase.Store(phaseWarm)
	s.flowStream = make([]uint8, len(b.in.flows))
	s.lastSeq = make([]int64, len(b.in.flows))
	for i, f := range b.in.flows {
		s.flowStream[i] = uint8(f.stream)
		s.lastSeq[i] = -1
	}
	for ph := range s.lat {
		for range b.in.streams {
			s.lat[ph] = append(s.lat[ph], newHist())
		}
	}
	return s
}

func (s *sink) delivered() uint64 {
	n := s.corrupt.Load()
	for i := range s.intact {
		n += s.intact[i].Load()
	}
	return n
}

// check reports the sink's correctness failures.
func (s *sink) check() error {
	if c, r := s.corrupt.Load(), s.reorder.Load(); c > 0 || r > 0 {
		return fmt.Errorf("sink: %d corrupt frames, %d out-of-order deliveries", c, r)
	}
	return nil
}

func (s *sink) deliver(ps []*dataplane.Packet) {
	tr := s.b.tr
	t := time.Now()
	now := int64(t.Sub(s.b.epoch))
	ph := s.phase.Load()
	var counts [4]uint64
	s.mu.Lock()
	for _, p := range ps {
		f := p.Frame
		if len(f) < hdrOff+hdrLen || !proto.VerifyIPv4Checksum(f[proto.EthernetHeaderLen:]) {
			s.corrupt.Add(1)
			continue
		}
		h := f[hdrOff : hdrOff+hdrLen]
		fl := binary.BigEndian.Uint32(h[0:4])
		if headerSum(h) != binary.BigEndian.Uint16(h[20:22]) || int(fl) >= len(s.lastSeq) {
			s.corrupt.Add(1)
			continue
		}
		seq := int64(binary.BigEndian.Uint32(h[4:8]))
		if seq <= s.lastSeq[fl] {
			s.reorder.Add(1)
		}
		s.lastSeq[fl] = seq
		st := s.flowStream[fl]
		counts[st]++
		due := int64(binary.BigEndian.Uint64(h[8:16]))
		if ph >= 0 {
			s.lat[ph][st].record(now - due)
		}
		if tr != nil {
			if idx := binary.BigEndian.Uint32(h[16:20]); idx&tr.mask == 0 && len(tr.samples) < maxRecords {
				tr.samples = append(tr.samples, sample{idx: idx, phase: int8(ph), due: due, sink: now, sinkWall: t.UnixNano()})
			}
		}
	}
	if tr != nil {
		tr.verify.add(s.b.now()-now, len(ps))
	}
	s.mu.Unlock()
	for st, c := range counts[:len(s.intact)] {
		if c > 0 {
			s.intact[st].Add(c)
		}
	}
	if s.waiting.Load() {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	if tr != nil {
		t := s.b.now()
		s.b.e.PutPacketBatch(ps)
		s.mu.Lock()
		tr.recycle.add(s.b.now()-t, len(ps))
		s.mu.Unlock()
		return
	}
	s.b.e.PutPacketBatch(ps)
}

// --- generator ------------------------------------------------------------

type pending struct {
	st  int
	ent uint32 // flow << 2 | size class
	due int64
}

// gen is the single load generator. It runs on the caller's goroutine and
// feeds one ProducerHandle lane, building every frame in place.
type gen struct {
	b            *bench
	window       uint64 // closed-loop in-flight packets
	pos          []int  // per stream: position in seq and gaps
	nextSeq      []uint32
	laneAccepted uint64
	payload      []byte
	pend         [maxBatch]pending
	batch        [maxBatch]*dataplane.Packet
	chain        [maxBatch]int
	pg           *phaseGen   // counters of the phase being generated
	poll         *time.Timer // stopped and drained between waitWindow calls
}

// phaseGen is what the generator counted during one phase.
type phaseGen struct {
	offered, refused, scheduled []uint64 // per stream
	late                        *hist
}

func newPhaseGen(n int) *phaseGen {
	return &phaseGen{offered: make([]uint64, n), refused: make([]uint64, n),
		scheduled: make([]uint64, n), late: newHist()}
}

func newGen(b *bench, window int) *gen {
	g := &gen{b: b, window: uint64(window), pos: make([]int, len(b.in.streams)), nextSeq: make([]uint32, len(b.in.flows)),
		payload: make([]byte, b.w.frameSize), poll: time.NewTimer(time.Hour)}
	g.poll.Stop()
	for i := range g.payload {
		g.payload[i] = byte(i*7 + 13)
	}
	return g
}

// emit builds and injects the n pending packets. A lane refusal is a NIC RX
// drop: the packet is recycled, never retried.
func (g *gen) emit(n int, now int64) {
	b, in, tr := g.b, g.b.in, g.b.tr
	t := now
	if b.dir != nil {
		for i := 0; i < n; i++ {
			g.chain[i] = b.dir.ChainOf(in.flows[g.pend[i].ent>>2].key)
		}
		if tr != nil {
			t = tr.lookup.since(b, t, n)
		}
	} else {
		for i := 0; i < n; i++ {
			g.chain[i] = in.streams[g.pend[i].st].chain
		}
	}
	for i := 0; i < n; i++ {
		g.batch[i] = b.cache.Get()
	}
	if tr != nil {
		t = tr.get.since(b, t, n)
	}
	for i := 0; i < n; i++ {
		p, pe := g.batch[i], &g.pend[i]
		f := pe.ent >> 2
		pl := g.payload[:in.streams[pe.st].sizes[pe.ent&3]]
		putHeader(pl, f, g.nextSeq[f], pe.due, uint32(g.laneAccepted)+uint32(i))
		g.nextSeq[f]++
		fl := &in.flows[f]
		buf := p.Frame[:cap(p.Frame)]
		k := proto.EncodeUDP(buf, srcMAC, dstMAC, fl.src, fl.dst, fl.sport, fl.dport, pl)
		p.Frame = buf[:k]
		p.Size = k
		p.FlowID = g.chain[i]
	}
	var pre time.Time
	if tr != nil {
		tr.encode.since(b, t, n)
		pre = time.Now()
	}
	acc := b.h.InjectBatch(g.batch[:n])
	if tr != nil {
		tr.injected(b, pre, time.Now(), uint32(g.laneAccepted), n, acc)
	}
	g.laneAccepted += uint64(acc)
	for i := 0; i < n; i++ {
		g.pg.offered[g.pend[i].st]++
	}
	for i := acc; i < n; i++ {
		g.pg.refused[g.pend[i].st]++
		b.cache.Put(g.batch[i])
	}
}

// next draws the stream's next packet entry and Poisson gap.
func (g *gen) next(st int) (ent uint32, gap float64) {
	s := g.b.in.streams[st]
	i := g.pos[st]
	g.pos[st] = (i + 1) % seqLen
	return s.seq[i], s.gaps[i]
}

// warm sends every flow once, then one ring's worth of each stream's
// sequence, through a closed loop, and waits until it has drained.
func (g *gen) warm() error {
	g.pg = newPhaseGen(len(g.b.in.streams))
	n := 0
	flush := func() {
		if n > 0 {
			g.emit(n, g.b.now())
			n = 0
		}
	}
	for fi, f := range g.b.in.flows {
		g.pend[n] = pending{st: f.stream, ent: uint32(fi) << 2}
		if n++; n == maxBatch {
			flush()
			g.waitWindow()
		}
	}
	for st := range g.b.in.streams {
		for i := 0; i < dataplane.DefaultConfig().RingSize; i++ {
			ent, _ := g.next(st)
			g.pend[n] = pending{st: st, ent: ent}
			if n++; n == maxBatch {
				flush()
				g.waitWindow()
			}
		}
	}
	flush()
	return g.b.quiesce()
}

// waitWindow blocks while a closed-loop window's worth of packets is in
// flight. It sleeps until the sink delivers a batch, like a client waiting
// for replies, so the generator leaves both Ps to the engine while the
// window is full; a polling wait would compete with the engine for them
// and measure the Go scheduler's placement as much as the engine. Drops
// free window slots without a delivery, so the wait also ends after
// windowPoll.
func (g *gen) waitWindow() {
	s := g.b.sink
	for g.inFlight() > g.window-maxBatch {
		s.waiting.Store(true)
		if g.inFlight() > g.window-maxBatch {
			g.poll.Reset(windowPoll)
			select {
			case <-s.wake:
				if !g.poll.Stop() {
					select {
					case <-g.poll.C:
					default:
					}
				}
			case <-g.poll.C:
			}
		}
		s.waiting.Store(false)
	}
}

// inFlight is accepted packets not yet delivered or dropped.
func (g *gen) inFlight() uint64 {
	done := g.b.sink.delivered()
	if g.laneAccepted-done > g.window-maxBatch {
		// Only when the window looks full: count engine drops too, so a
		// dropped packet cannot hold a window slot forever.
		l := g.b.e.LedgerSnapshot()
		done += l.EntryDrops + l.FaultEntryDrops + l.RingDrops + l.NFDrops + l.FaultDrops + l.OutputDrops
	}
	if done > g.laneAccepted {
		return 0
	}
	return g.laneAccepted - done
}

// closedLoop drives stream st with a fixed in-flight window for dur and
// returns the delivered rate over the last nine tenths of the phase (the
// first tenth fills the window).
func (g *gen) closedLoop(st int, dur time.Duration) float64 {
	b := g.b
	start := b.now()
	from, end := start+int64(dur)/10, start+int64(dur)
	var d0 uint64
	var t0 int64
	for {
		now := b.now()
		if now >= end {
			break
		}
		if t0 == 0 && now >= from {
			d0, t0 = b.sink.intact[st].Load(), now
		}
		if g.inFlight() > g.window-maxBatch {
			g.waitWindow()
			continue
		}
		for i := 0; i < maxBatch; i++ {
			ent, _ := g.next(st)
			g.pend[i] = pending{st: st, ent: ent, due: now}
		}
		g.pg.scheduled[st] += maxBatch
		g.emit(maxBatch, now)
	}
	t1 := b.now()
	return float64(b.sink.intact[st].Load()-d0) / (float64(t1-t0) / 1e9)
}

// openLoop offers every stream with a non-zero rate on its own Poisson
// schedule for dur, merged in due-time order. Packets are stamped with their
// due time, so a late generator shows up as latency; lateness is recorded
// separately.
//
// Between due times the generator either polls (see spinUntil), which keeps
// one P busy, or, when idle is set, blocks its thread in the kernel until
// the next due time. Then nothing in the process runs while the engine has
// no work, so the engine's idle sleeps (time.Sleep, which wakes about a
// millisecond late on an idle process) show in the latency.
func (g *gen) openLoop(rates []float64, dur time.Duration, idle bool) {
	b := g.b
	ns := len(rates)
	start := b.now() + int64(100*time.Microsecond)
	end := start + int64(dur)
	nextDue := make([]int64, ns)
	nextEnt := make([]uint32, ns)
	period := make([]float64, ns)
	for st, r := range rates {
		nextDue[st] = end
		if r > 0 {
			period[st] = 1e9 / r
			ent, gap := g.next(st)
			nextDue[st], nextEnt[st] = start+int64(gap*period[st]), ent
		}
	}
	earliest := func() int {
		m := 0
		for st := 1; st < ns; st++ {
			if nextDue[st] < nextDue[m] {
				m = st
			}
		}
		return m
	}
	for {
		now := b.now()
		if now >= end {
			break
		}
		n := 0
		for n < maxBatch {
			st := earliest()
			if nextDue[st] > now || nextDue[st] >= end {
				break
			}
			g.pend[n] = pending{st: st, ent: nextEnt[st], due: nextDue[st]}
			g.pg.scheduled[st]++
			ent, gap := g.next(st)
			nextDue[st] += int64(gap * period[st])
			nextEnt[st] = ent
			n++
		}
		if n == 0 {
			if wait := time.Duration(nextDue[earliest()] - now); idle {
				nanosleep(wait)
			} else if wait > spinUntil {
				time.Sleep(wait - spinUntil)
			} else {
				runtime.Gosched()
			}
			continue
		}
		for i := 0; i < n; i++ {
			g.pg.late.record(now - g.pend[i].due)
		}
		g.emit(n, now)
	}
	// Whatever was due before the end but never sent: the generator fell
	// behind its schedule.
	for st := range rates {
		for period[st] > 0 && nextDue[st] < end {
			g.pg.scheduled[st]++
			_, gap := g.next(st)
			nextDue[st] += int64(gap * period[st])
		}
	}
}

// nanosleep blocks the calling thread in the kernel for d. The kernel wakes
// it within tens of microseconds, where time.Sleep waits for the Go
// scheduler's timer, which fires about a millisecond late when no goroutine
// is runnable.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only means another pass
}
