package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"nfvnice/internal/dataplane"
)

// timer accumulates the time spent in one kind of call and the packets the
// calls covered.
type timer struct{ ns, pkts int64 }

func (t *timer) add(ns int64, n int) {
	t.ns += ns
	t.pkts += int64(n)
}

// since charges the interval from t0 to now for n packets and returns now,
// so consecutive sections can be timed with one clock read each.
func (t *timer) since(b *bench, t0 int64, n int) int64 {
	now := b.now()
	t.add(now-t0, n)
	return now
}

func (t *timer) perPkt() float64 {
	if t.pkts == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.pkts)
}

// nfTimer times one stage's handler calls; the stage's worker writes it and
// the report reads it after Run has returned.
type nfTimer struct{ calls, pkts, ns atomic.Int64 }

// injectRec is the generator's half of a span join: the InjectBatch call
// that handed a sampled packet to the lane, timed by the benchmark.
type injectRec struct {
	idx       uint32
	pre, post int64 // wall clock around the call, the clock spans use
	preMono   int64 // benchmark clock at the call, comparable with due times
}

// sample is a delivered packet whose lane index the engine's 1-in-2^shift
// span sampler also picked: the sink's half of a span join.
type sample struct {
	idx       uint32
	phase     int8
	due, sink int64 // benchmark clock
	sinkWall  int64 // wall clock at the sink, the clock spans use
}

// spanRec is a copy of one completed engine span.
type spanRec struct {
	seq             uint64
	inject, deliver int64
	n               int
	hops            [4]dataplane.HopStamp
}

// tracer holds everything the traced run records. Generator timers and
// inject records are written on the generator goroutine, sink timers and
// samples under the sink's mutex, spans under spanMu.
type tracer struct {
	mask uint32

	lookup, get, encode, inject timer
	verify, recycle             timer
	injects                     []injectRec
	samples                     []sample
	nf                          []nfTimer

	spanMu sync.Mutex
	spans  []spanRec
}

// maxRecords bounds the samples and spans one traced run keeps. Both are
// preallocated, so recording them allocates nothing while the phases run;
// at 1 in 256 packets it holds well over a minute of the fastest workload.
const maxRecords = 1 << 18

func newTracer(w *workload) *tracer {
	return &tracer{mask: 1<<traceSampleShift - 1, nf: make([]nfTimer, len(w.stages)),
		injects: make([]injectRec, 0, maxRecords), samples: make([]sample, 0, maxRecords),
		spans: make([]spanRec, 0, maxRecords)}
}

// full reports whether a record buffer overflowed, which would leave spans
// without their samples.
func (tr *tracer) full() bool {
	tr.spanMu.Lock()
	defer tr.spanMu.Unlock()
	return len(tr.injects) == maxRecords || len(tr.samples) == maxRecords || len(tr.spans) == maxRecords
}

// injected charges an InjectBatch call that ran from pre to post for n
// packets, and records the call's window for each of the acc accepted
// packets, numbered from base in lane order, that the engine samples.
func (tr *tracer) injected(b *bench, pre, post time.Time, base uint32, n, acc int) {
	tr.inject.add(int64(post.Sub(pre)), n)
	step := tr.mask + 1
	for off := (step - base&tr.mask) & tr.mask; off < uint32(acc); off += step {
		if len(tr.injects) < maxRecords {
			tr.injects = append(tr.injects, injectRec{idx: base + off, pre: pre.UnixNano(),
				post: post.UnixNano(), preMono: int64(pre.Sub(b.epoch))})
		}
	}
}

// wrap times a stage handler.
func (tr *tracer) wrap(slot int, fn dataplane.BatchHandler) dataplane.BatchHandler {
	t := &tr.nf[slot]
	return func(ps []*dataplane.Packet) {
		t0 := time.Now()
		fn(ps)
		t.ns.Add(int64(time.Since(t0)))
		t.calls.Add(1)
		t.pkts.Add(int64(len(ps)))
	}
}

// span is the engine's span sink; it keeps a copy in memory.
func (tr *tracer) span(sp *dataplane.Span) {
	r := spanRec{seq: sp.Seq, inject: sp.InjectNanos, deliver: sp.DeliverNanos, n: sp.N}
	copy(r.hops[:], sp.Hops[:])
	tr.spanMu.Lock()
	if len(tr.spans) < maxRecords {
		tr.spans = append(tr.spans, r)
	}
	tr.spanMu.Unlock()
}

// poller samples the engine's gauges at about 1 kHz while the traced
// phases run.
type poller struct {
	e          *dataplane.Engine
	chains     int
	stop, done chan struct{}

	polls      int
	depth      []float64 // summed per stage
	weight     []float64
	estCost    []float64
	throttled  []int // per chain
	moverBatch float64
	bpOn       int
	seen       uint64 // journal decisions already counted
}

func startPoller(e *dataplane.Engine, stages, chains int) *poller {
	p := &poller{e: e, chains: chains, stop: make(chan struct{}), done: make(chan struct{}),
		depth: make([]float64, stages), weight: make([]float64, stages),
		estCost: make([]float64, stages), throttled: make([]int, chains)}
	if j := e.Decisions(); j != nil {
		p.seen = j.Total()
	}
	go p.run()
	return p
}

func (p *poller) run() {
	defer close(p.done)
	var depths []int
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		depths = p.e.QueueDepths(depths)
		for i, s := range p.e.Stats() {
			p.depth[i] += float64(depths[i])
			p.weight[i] += float64(s.Weight)
			p.estCost[i] += float64(s.EstCost)
		}
		for c := 0; c < p.chains; c++ {
			if p.e.Throttled(c) {
				p.throttled[c]++
			}
		}
		for _, m := range p.e.MoverStats() {
			p.moverBatch += float64(m.Batch)
		}
		if j := p.e.Decisions(); j != nil {
			// Copy out only the decisions appended since the last poll.
			if total := j.Total(); total > p.seen {
				for _, d := range j.Tail(int(min(total-p.seen, 1024))) {
					if d.Kind == dataplane.DecisionBPOn {
						p.bpOn++
					}
				}
				p.seen = total
			}
		}
		p.polls++
		time.Sleep(time.Millisecond)
	}
}

func (p *poller) finish() {
	close(p.stop)
	<-p.done
}

// procSnap is the process-level counters read around the traced phases.
type procSnap struct {
	cpu     time.Duration
	allocs  uint64
	gc      uint64
	sched   *metrics.Float64Histogram
	movers  []dataplane.MoverStats
	lookups uint64
	hits    uint64
	evicts  uint64
}

func readProc(b *bench) procSnap {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	ps := procSnap{
		cpu:    cpuTime(),
		allocs: s[0].Value.Uint64(),
		gc:     s[1].Value.Uint64(),
		sched:  s[2].Value.Float64Histogram(),
		movers: b.e.MoverStats(),
	}
	if b.dir != nil {
		t := b.dir.Table
		ps.lookups, ps.hits, ps.evicts = t.Lookups.Load(), t.Hits.Load(), t.Evictions.Load()
	}
	return ps
}

// schedP99 is the 99th percentile of the scheduling latencies observed
// between two reads of /sched/latencies:seconds, in seconds.
func schedP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(0.99 * float64(total))
	var cum uint64
	for i, c := range d {
		cum += c
		if cum > rank {
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// Reconciliation limits of the traced run.
const (
	// injectSlack is how much earlier than the benchmark's InjectBatch
	// call a span's inject stamp may read. The engine stamps packets when
	// its mover drains the lane, with one clock read for as long as the
	// drain keeps finding packets, so a packet that lands in the lane
	// mid-drain carries a stamp from before it was handed over. Such
	// stamps are counted as stale (up to 5 ms stale on a 2-vCPU VM); a
	// drain that the Go scheduler preempts can hold its stamp for a 10 ms
	// preemption tick, and the slack allows two. A stamp older than that
	// fails the run.
	injectSlack = 20 * time.Millisecond
	// reconcileTolerance bounds trace.reconcile_err_frac: how far the
	// light-phase median of (generator gap + InjectBatch call + engine
	// span total) may lie from the light p50 the sink measured on every
	// packet of the same engine, as a share of that p50. The two differ by
	// the lane dwell and the sink hand-off, which no stamp of either side
	// covers alone, and by sampling: 1 in 256 packets against all of them.
	// Both stayed within 0.1 on a 2-vCPU VM; a systematic error of a fifth
	// of the p50 in the engine's stamps fails the run.
	reconcileTolerance = 0.2
)

// spanReport is what the span join yields.
type spanReport struct {
	rxwait, service, txdwell []*hist // per stage slot, focus phase
	laneDwell, deliverWait   *hist   // focus phase
	// Light phase: the engine's span totals, and the same plus the gaps
	// the benchmark timed on its own clock before the lane.
	lightEngine, lightEst   *hist
	joined, stale, failures int
	maxStale                int64
	firstFailure            string
}

// joinSpans matches each completed engine span with the generator's inject
// record and the sink's sample of the same packet (the engine numbers
// packets in lane order, which is the lane index the generator wrote into
// the header) and checks the engine's stamps against the times the
// benchmark saw the packet on its own clock reads:
//
//   - every hop of the packet's chain is stamped, and the stamps run in
//     order from the inject stamp (rx wait, service and tx dwell >= 0);
//   - the delivery stamp is no later than the sink's clock read on receipt;
//   - the inject stamp is no earlier than the generator's clock read before
//     InjectBatch, less injectSlack (earlier at all counts as stale).
//
// Per-stage components are collected from the focus phase.
func joinSpans(tr *tracer, w *workload, in *inputs, focus int) *spanReport {
	ns := len(w.stages)
	r := &spanReport{laneDwell: newHist(), deliverWait: newHist(), lightEngine: newHist(), lightEst: newHist()}
	for i := 0; i < ns; i++ {
		r.rxwait = append(r.rxwait, newHist())
		r.service = append(r.service, newHist())
		r.txdwell = append(r.txdwell, newHist())
	}
	chainLen := make(map[int32]int) // by entry stage
	for _, st := range in.streams {
		chainLen[int32(st.slots[0])] = len(st.slots)
	}
	byIdx := make(map[uint32]sample, len(tr.samples))
	for _, s := range tr.samples {
		byIdx[s.idx] = s
	}
	injAt := make(map[uint32]injectRec, len(tr.injects))
	for _, g := range tr.injects {
		injAt[g.idx] = g
	}
	fail := func(format string, args ...any) {
		if r.failures == 0 {
			r.firstFailure = fmt.Sprintf(format, args...)
		}
		r.failures++
	}
	tr.spanMu.Lock()
	defer tr.spanMu.Unlock()
	for _, sp := range tr.spans {
		s, ok := byIdx[uint32(sp.seq)]
		g, gok := injAt[uint32(sp.seq)]
		if !ok || !gok {
			fail("span %d has no delivered packet (%t) or no inject record (%t)", sp.seq, ok, gok)
			continue
		}
		if s.phase < 0 {
			continue // warm-up traffic
		}
		r.joined++
		if n := chainLen[sp.hops[0].Stage]; sp.n != n {
			fail("span %d has %d hops, its chain %d", sp.seq, sp.n, n)
			continue
		}
		prev, ordered := sp.inject, true
		for h := 0; h < sp.n; h++ {
			hp := sp.hops[h]
			ordered = ordered && hp.EnterNanos >= prev && hp.ExitNanos >= hp.EnterNanos && hp.MovedNanos >= hp.ExitNanos
			prev = hp.MovedNanos
		}
		handoff, stale := s.sinkWall-sp.deliver, g.pre-sp.inject
		switch {
		case !ordered:
			fail("span %d hop stamps out of order: inject %d, hops %+v", sp.seq, sp.inject, sp.hops[:sp.n])
			continue
		case handoff < 0:
			fail("span %d: delivery stamped %d ns after the sink received the packet", sp.seq, -handoff)
			continue
		case stale > int64(injectSlack):
			fail("span %d: inject stamped %v before InjectBatch was called, beyond the %v slack", sp.seq, time.Duration(stale), injectSlack)
			continue
		}
		if stale > 0 {
			r.stale++
			r.maxStale = max(r.maxStale, stale)
		}
		if int(s.phase) == focus {
			prev := sp.inject
			for h := 0; h < sp.n; h++ {
				hp := sp.hops[h]
				r.rxwait[hp.Stage].record(hp.EnterNanos - prev)
				r.service[hp.Stage].record(hp.ExitNanos - hp.EnterNanos)
				r.txdwell[hp.Stage].record(hp.MovedNanos - hp.ExitNanos)
				prev = hp.MovedNanos
			}
			r.laneDwell.record(sp.inject - g.post)
			r.deliverWait.record(handoff)
		}
		if int(s.phase) == phaseLight {
			engine := sp.deliver - sp.inject
			r.lightEngine.record(engine)
			r.lightEst.record(g.preMono - s.due + g.post - g.pre + engine)
		}
	}
	return r
}

func p50us(h *hist) float64 { return h.quantile(0.5) / 1e3 }

func p99us(h *hist) float64 { return h.quantile(0.99) / 1e3 }

// traced runs the workload twice: a short untraced pass (closed and light
// phases) as the reference, then every phase on an engine with the flight
// recorder on, every stage handler and every generator and sink call timed,
// and the engine's gauges polled. It reports the per-layer metrics.
func traced(out io.Writer, w *workload, in *inputs, dur time.Duration) (*result, error) {
	ref, _, err := setup(w, in, nil)
	if err != nil {
		return nil, fmt.Errorf("reference set-up: %w", err)
	}
	refClosed, err := ref.runPhase(phaseClosed, share(refShare, phaseClosed, dur))
	var refLight *phaseResult
	if err == nil {
		refLight, err = ref.runPhase(phaseLight, share(refShare, phaseLight, dur))
	}
	if serr := ref.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	focus, _ := focusStreams(w, in)
	return tracedPass(out, w, in, dur, refClosed.capacity, refLight.streams[focus[phaseLight]].lat)
}

func tracedPass(out io.Writer, w *workload, in *inputs, dur time.Duration, refCap float64, refLight *hist) (*result, error) {
	tr := newTracer(w)
	b, _, err := setup(w, in, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	// Generator and sink timers cover the measured phases only.
	b.sink.mu.Lock()
	tr.lookup, tr.get, tr.encode, tr.inject, tr.verify, tr.recycle = timer{}, timer{}, timer{}, timer{}, timer{}, timer{}
	b.sink.mu.Unlock()
	for i := range tr.nf {
		tr.nf[i] = nfTimer{}
	}
	p0, s0, l0 := readProc(b), b.e.Stats(), b.e.LedgerSnapshot()
	poll := startPoller(b.e, len(w.stages), len(in.streams))
	t0 := time.Now()
	var phases [nPhases]*phaseResult
	for ph := range phases {
		r, err := b.runPhase(ph, share(tracedShare, ph, dur))
		if err != nil {
			poll.finish()
			b.stop()
			return nil, err
		}
		phases[ph] = r
	}
	wall := time.Since(t0)
	poll.finish()
	p1, s1, l1 := readProc(b), b.e.Stats(), b.e.LedgerSnapshot()
	res := &result{}
	if err := b.stop(); err != nil {
		return res, err
	}
	c := report(out, "traced", in, phases[:])
	res.attempted, res.fail = c.ops, c.failed
	fmt.Fprintf(out, "ops=%d failed=%d lost=%d shed=%d\n", c.ops, c.failed, c.lost, c.shed)
	if err := b.sink.check(); err != nil {
		return res, err
	}
	if tr.full() {
		return res, fmt.Errorf("more than %d sampled packets: the trace buffers overflowed", maxRecords)
	}
	if st := b.e.SpanStats(); st.Starved > 0 || st.SpoolDrops > 0 {
		fmt.Fprintf(out, "FLAG spans lost: %+v\n", st)
	}
	sr := joinSpans(tr, w, in, w.spanFocus)
	// The untraced reference engine's light p50 is printed beside the
	// traced engine's but not held to the tolerance: the idle wake-up
	// makes light-load p50 differ between engines by more than any useful
	// tolerance (see meta.json).
	focus, _ := focusStreams(w, in)
	all := phases[phaseLight].streams[focus[phaseLight]].lat
	reconcile := math.Abs(sr.lightEst.quantile(0.5)-all.quantile(0.5)) / all.quantile(0.5)
	fmt.Fprintf(out, "trace spans=%d joined=%d stale=%d max_stale_us=%.6g failures=%d light_p50_us engine=%.6g engine+gen=%.6g all=%.6g untraced_engine=%.6g reconcile_err=%.4f tolerance=%g\n",
		len(tr.spans), sr.joined, sr.stale, float64(sr.maxStale)/1e3, sr.failures, p50us(sr.lightEngine), p50us(sr.lightEst),
		p50us(all), p50us(refLight), reconcile, reconcileTolerance)

	sd, ld := statsDelta(s1, s0), ledgerDelta(l1, l0)
	var offered, refused, sched, processed, wasted uint64
	late := newHist()
	for _, r := range phases {
		for _, a := range r.streams {
			offered += a.offered
			refused += a.refused
			if r.phase != phaseClosed {
				sched += a.scheduled
			}
		}
		if r.phase != phaseClosed {
			late.merge(r.late)
		}
	}
	for _, d := range sd {
		processed += d.Processed
		wasted += d.Wasted
	}
	var openOffered uint64
	for _, r := range phases[firstOpen:] {
		for _, a := range r.streams {
			openOffered += a.offered
		}
	}
	mv0, mv1 := sumMovers(p0.movers), sumMovers(p1.movers)
	sweeps := float64(mv1.Sweeps - mv0.Sweeps)
	polls := float64(poll.polls)

	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name: name, unit: unit, value: v}) }
	add("lanes.inject_ns_per_pkt", "ns/pkt", tr.inject.perPkt())
	add("lanes.refused_ppm", "ppm", ratio(1e6*float64(refused), float64(offered)))
	add("lanes.dwell_p50_us", "us", p50us(sr.laneDwell))
	add("pool.get_ns", "ns/pkt", tr.get.perPkt())
	add("pool.recycle_ns_per_pkt", "ns/pkt", tr.recycle.perPkt())
	add("go.alloc_bytes_per_pkt", "B/pkt", ratio(float64(p1.allocs-p0.allocs), float64(offered)))
	for slot := 0; slot < maxSlots; slot++ {
		pre := fmt.Sprintf("stage.s%d.", slot)
		var busy, rx50, rx99, svc, tx, depth, weight, cost, perCall, nsPer, drops float64
		if slot < len(w.stages) {
			busy = sd[slot].Busy.Seconds() / wall.Seconds()
			rx50, rx99 = p50us(sr.rxwait[slot]), p99us(sr.rxwait[slot])
			svc, tx = p50us(sr.service[slot]), p50us(sr.txdwell[slot])
			depth, weight, cost = poll.depth[slot]/polls, poll.weight[slot]/polls, poll.estCost[slot]/polls
			t := &tr.nf[slot]
			perCall = ratio(float64(t.pkts.Load()), float64(t.calls.Load()))
			nsPer = ratio(float64(t.ns.Load()), float64(t.pkts.Load()))
			drops = float64(sd[slot].NFDrops)
		}
		add(pre+"busy_frac", "frac", busy)
		add(pre+"rxwait_p50_us", "us", rx50)
		add(pre+"rxwait_p99_us", "us", rx99)
		add(pre+"service_p50_us", "us", svc)
		add(pre+"txdwell_p50_us", "us", tx)
		add(pre+"queue_depth_mean", "pkts", depth)
		add(pre+"weight", "shares", weight)
		add(pre+"estcost_ns", "ns/pkt", cost)
		nf := fmt.Sprintf("nf.s%d.", slot)
		add(nf+"pkts_per_call", "pkts/call", perCall)
		add(nf+"ns_per_pkt", "ns/pkt", nsPer)
		add(nf+"drops", "count", drops)
	}
	add("go.sched_latency_p99_us", "us", schedP99(p0.sched, p1.sched)*1e6)
	add("mover.moved_per_sweep", "pkts/sweep", ratio(float64(mv1.Moved-mv0.Moved), sweeps))
	add("mover.park_ratio", "frac", ratio(float64(mv1.Parks-mv0.Parks), sweeps))
	add("mover.wakes_per_kpkt", "1/kpkt", ratio(1e3*float64(mv1.Wakes-mv0.Wakes), float64(offered)))
	add("mover.batch", "pkts", poll.moverBatch/polls)
	add("deliver.wait_p50_us", "us", p50us(sr.deliverWait))
	add("ledger.mid_ring_drops", "count", float64(ld.MidRingDrops))
	add("ledger.wasted_ppm", "ppm", ratio(1e6*float64(wasted), float64(processed)))
	add("bp.throttle_events", "count", float64(ld.ThrottleEvents))
	add("bp.entry_drops", "count", float64(ld.EntryDrops))
	add("bp.on_decisions", "count", float64(poll.bpOn))
	for c := 0; c < maxChains; c++ {
		v := 0.0
		if c < len(in.streams) {
			v = float64(poll.throttled[c]) / polls
		}
		add(fmt.Sprintf("bp.throttled_frac.c%d", c), "frac", v)
	}
	add("flowtable.lookup_ns", "ns/pkt", tr.lookup.perPkt())
	add("flowtable.hit_ratio", "frac", ratio(float64(p1.hits-p0.hits), float64(p1.lookups-p0.lookups)))
	add("flowtable.evictions", "count", float64(p1.evicts-p0.evicts))
	add("proto.encode_ns", "ns/pkt", tr.encode.perPkt())
	add("proto.verify_ns", "ns/pkt", tr.verify.perPkt())
	add("proc.cpu_ns_per_pkt", "ns/pkt", ratio(float64(p1.cpu-p0.cpu), float64(offered)))
	add("go.gc_cycles", "count", float64(p1.gc-p0.gc))
	add("gen.late_p50_us", "us", p50us(late))
	add("gen.late_p99_us", "us", p99us(late))
	add("gen.offered_frac", "frac", ratio(float64(openOffered), float64(sched)))
	add("trace.overhead_frac", "frac", 1-phases[phaseClosed].capacity/refCap)
	add("trace.reconcile_err_frac", "frac", reconcile)
	add("trace.stale_stamp_frac", "frac", ratio(float64(sr.stale), float64(sr.joined)))
	res.metrics = ms

	switch {
	case sr.failures > 0:
		return res, fmt.Errorf("%d of %d spans do not reconcile; first: %s", sr.failures, len(tr.spans), sr.firstFailure)
	case sr.lightEst.n == 0:
		return res, fmt.Errorf("no light-phase span joined a delivered packet")
	case reconcile > reconcileTolerance:
		return res, fmt.Errorf("span median %.1f us differs from the light p50 %.1f us by %.3f, above the %.3f tolerance",
			p50us(sr.lightEst), p50us(all), reconcile, reconcileTolerance)
	}
	res.correct = true
	return res, nil
}

// Every workload reports the same per-layer names: stage slots s0..s3 and
// chain slots c0..c1, zero where the workload has no such stage or chain.
const (
	maxSlots  = 4
	maxChains = 2
)

// sumMovers adds up the TX shards' counters.
func sumMovers(ms []dataplane.MoverStats) dataplane.MoverStats {
	var t dataplane.MoverStats
	for _, m := range ms {
		t.Sweeps += m.Sweeps
		t.Moved += m.Moved
		t.Parks += m.Parks
		t.Wakes += m.Wakes
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
