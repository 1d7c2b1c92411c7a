package main

import (
	"fmt"
	"syscall"
	"time"

	"nfvnice/internal/dataplane"
)

// streamAcct places every packet one stream offered during a phase in
// exactly one bucket.
type streamAcct struct {
	offered   uint64 // generated and handed to the lane
	refused   uint64 // lane full at the generator (NIC RX drop)
	intact    uint64 // delivered and verified by the sink
	shed      uint64 // dropped at chain entry by backpressure (or a down chain)
	entryRing uint64 // dropped at a full chain-entry ring
	mid       uint64 // accepted, then dropped at a full mid-chain ring
	nf        uint64 // discarded by an NF
	fault     uint64 // lost to a stage fault
	scheduled uint64 // open loop: due before the phase ended
	lat       *hist
}

// outcome sorts the stream's offered packets that were not delivered
// intact. A packet the engine dropped because it was loaded (lane full at
// the generator, shed or ring full at chain entry, ring full mid-chain) is
// lost: its count varies from run to run with the host's timing, so it is a
// measured outcome (loss_ppm), not a failed operation. For an aggressor,
// lane refusals and drops at chain entry are the intended outcome and count
// as shed instead; a mid-chain drop is never shed. A packet lost for any
// other reason (an NF drop, a stage fault) failed: no NF in these workloads
// drops a packet and no stage faults, so a correct engine fails none.
func (a *streamAcct) outcome(aggressor bool) (failed, lost, shed uint64) {
	failed = a.nf + a.fault
	lost = a.refused + a.shed + a.entryRing + a.mid
	if aggressor {
		shed = a.refused + a.shed + a.entryRing
		lost -= shed
	}
	return failed, lost, shed
}

// phaseResult is one measured phase.
type phaseResult struct {
	phase    int
	wall     time.Duration // generation time
	streams  []streamAcct
	other    uint64 // engine classes no stage owns: output, shutdown, late, remote, corrupt
	ledger   dataplane.Ledger
	stats    []dataplane.StageStats // per-stage deltas
	late     *hist
	capacity float64
	cpu      time.Duration // process CPU time (user + system) over the phase
}

// runPhase generates one phase (closed loop on closedStream, or open loop at
// the workload's rates), waits until the engine is quiet again, and accounts
// for every packet offered in it. An accounting identity that does not close
// is an error.
func (b *bench) runPhase(ph int, dur time.Duration) (*phaseResult, error) {
	ns := len(b.in.streams)
	l0, s0 := b.e.LedgerSnapshot(), b.e.Stats()
	i0 := make([]uint64, ns)
	for st := range i0 {
		i0[st] = b.sink.intact[st].Load()
	}
	c0 := b.sink.corrupt.Load()
	b.g.pg = newPhaseGen(ns)
	b.sink.phase.Store(int32(ph))
	r := &phaseResult{phase: ph}
	t0, cpu0 := time.Now(), cpuTime()
	if ph == phaseClosed {
		r.capacity = b.g.closedLoop(b.closedStream(), dur)
	} else {
		b.g.openLoop(b.w.rates[ph], dur, ph == phaseIdle)
	}
	r.wall = time.Since(t0)
	if err := b.quiesce(); err != nil {
		return nil, fmt.Errorf("%s phase: %w", phaseNames[ph], err)
	}
	r.cpu = cpuTime() - cpu0
	b.sink.phase.Store(phaseWarm)
	l1, s1 := b.e.LedgerSnapshot(), b.e.Stats()
	r.ledger = ledgerDelta(l1, l0)
	r.stats = statsDelta(s1, s0)
	r.late = b.g.pg.late
	for st, s := range b.in.streams {
		a := streamAcct{
			offered:   b.g.pg.offered[st],
			refused:   b.g.pg.refused[st],
			scheduled: b.g.pg.scheduled[st],
			intact:    b.sink.intact[st].Load() - i0[st],
			lat:       b.sink.lat[ph][st],
		}
		for i, slot := range s.slots {
			d := r.stats[slot]
			a.nf += d.NFDrops
			a.fault += d.FaultDrops
			if i == 0 {
				a.entryRing = d.QueueDrops
				a.shed = d.Arrivals - d.QueueDrops - d.Processed - d.FaultDrops
			} else {
				a.mid += d.QueueDrops
			}
		}
		r.streams = append(r.streams, a)
	}
	l := r.ledger
	r.other = l.OutputDrops + l.ShutdownDrops + l.LateDrops + l.RemoteDelivered + l.RemoteDrops +
		b.sink.corrupt.Load() - c0
	return r, r.check()
}

// check verifies that the buckets close: per stream against the engine's
// per-stage counters, and in total against the global ledger.
func (r *phaseResult) check() error {
	var off, sum, shed, entryRing, mid, nf, fault, intact uint64
	for st, a := range r.streams {
		s := a.refused + a.intact + a.shed + a.entryRing + a.mid + a.nf + a.fault
		if r.other == 0 && s != a.offered {
			return fmt.Errorf("%s phase, stream %d: buckets sum to %d, offered %d: %+v",
				phaseNames[r.phase], st, s, a.offered, a)
		}
		off += a.offered
		sum += s
		shed += a.shed
		entryRing += a.entryRing
		mid += a.mid
		nf += a.nf
		fault += a.fault
		intact += a.intact
	}
	l := r.ledger
	switch {
	case sum+r.other != off:
		return fmt.Errorf("%s phase: buckets sum to %d, offered %d", phaseNames[r.phase], sum+r.other, off)
	case shed != l.EntryDrops+l.FaultEntryDrops:
		return fmt.Errorf("%s phase: per-chain entry sheds %d, ledger %d", phaseNames[r.phase], shed, l.EntryDrops+l.FaultEntryDrops)
	case entryRing != l.RingDrops-l.MidRingDrops || mid != l.MidRingDrops:
		return fmt.Errorf("%s phase: ring drops entry=%d mid=%d, ledger ring=%d mid=%d",
			phaseNames[r.phase], entryRing, mid, l.RingDrops, l.MidRingDrops)
	case nf != l.NFDrops || fault != l.FaultDrops:
		return fmt.Errorf("%s phase: nf/fault drops %d/%d, ledger %d/%d", phaseNames[r.phase], nf, fault, l.NFDrops, l.FaultDrops)
	case intact > l.Delivered:
		return fmt.Errorf("%s phase: sink counted %d intact, ledger delivered %d", phaseNames[r.phase], intact, l.Delivered)
	}
	return nil
}

// closedStream is the index of the stream the closed-loop phase drives.
func (b *bench) closedStream() int {
	for i, s := range b.in.streams {
		if s.name == b.w.closedStream {
			return i
		}
	}
	panic("workload " + b.w.name + " has no stream " + b.w.closedStream)
}

func ledgerDelta(a, b dataplane.Ledger) dataplane.Ledger {
	return dataplane.Ledger{
		Injected: a.Injected - b.Injected, Delivered: a.Delivered - b.Delivered,
		MidRingDrops: a.MidRingDrops - b.MidRingDrops, OutputDrops: a.OutputDrops - b.OutputDrops,
		NFDrops: a.NFDrops - b.NFDrops, FaultDrops: a.FaultDrops - b.FaultDrops,
		ShutdownDrops: a.ShutdownDrops - b.ShutdownDrops, RemoteDelivered: a.RemoteDelivered - b.RemoteDelivered,
		RemoteDrops: a.RemoteDrops - b.RemoteDrops, EntryDrops: a.EntryDrops - b.EntryDrops,
		FaultEntryDrops: a.FaultEntryDrops - b.FaultEntryDrops, LateDrops: a.LateDrops - b.LateDrops,
		RingDrops: a.RingDrops - b.RingDrops, ThrottleEvents: a.ThrottleEvents - b.ThrottleEvents,
	}
}

// statsDelta subtracts the cumulative counters; gauges (Weight, EstCost,
// Health) keep their later value.
func statsDelta(a, b []dataplane.StageStats) []dataplane.StageStats {
	out := make([]dataplane.StageStats, len(a))
	for i := range a {
		d := a[i]
		d.Processed -= b[i].Processed
		d.Arrivals -= b[i].Arrivals
		d.Busy -= b[i].Busy
		d.QueueDrops -= b[i].QueueDrops
		d.Wasted -= b[i].Wasted
		d.Restarts -= b[i].Restarts
		d.FaultDrops -= b[i].FaultDrops
		d.NFDrops -= b[i].NFDrops
		out[i] = d
	}
	return out
}

// cpuTime is the process's CPU time so far, user plus system, over all
// threads. The kernel leaves out time the hypervisor stole from the vCPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
