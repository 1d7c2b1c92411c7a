// Command perfbench is the repository's benchmark of the live engine
// (internal/dataplane with the nfs, flowtable, frontend and proto packages).
// It drives the engine only through its public API from a single generator
// goroutine, verifies every delivered frame, and prints every metric by name
// with its unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload noop-chain3-64b --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it measures the end-to-end metrics: median set-up time,
// closed-loop capacity, and open-loop latency and goodput at each workload's
// frozen rates. With --trace 1 it runs the same phases on an engine with the
// flight recorder on and every layer call timed, and prints the per-layer
// metrics instead. Any correctness failure (ledger residual, reordering, a
// corrupt frame, accounting that does not close, a span whose engine stamps
// fall outside the times the benchmark saw the packet) exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The benchmark's fixed settings.
const (
	// enginesPerRun is how many engines an untraced run builds, one after
	// another. Each is set up from scratch and runs every phase for
	// 1/enginesPerRun of the phase's time. Every end-to-end metric is the
	// median over the engines, so a noisy stretch that spoils a few
	// engines moves it by a rank at most.
	enginesPerRun = 25
	// setupOnlyPerEngine is how many more engines are set up and stopped
	// without running a phase before each measured engine. Set-up takes
	// a few to a few tens of milliseconds and varies by 2-4x between
	// engines, so setup_s needs more samples than the other metrics.
	setupOnlyPerEngine = 1
	// closedWindow is the closed-loop phase's in-flight packet count.
	closedWindow = 1024
	// traceSampleShift makes the traced engine sample 1 in 2^shift packets
	// (Config.TraceSampleShift).
	traceSampleShift = 8
)

// phaseShare is the share of --seconds an untraced run spends in each
// phase, summed over its engines. The light phase gets half: a single
// engine's light p99 is set by how many of Go's 10 ms preemption waits
// fall into its share (see spinUntil), so it is the least steady gated
// metric and gains most from more time.
var phaseShare = [nPhases]float64{phaseClosed: 0.15, phaseLight: 0.5, phaseIdle: 0.15, phaseHeavy: 0.2}

// A traced run first drives an untraced reference engine for refShare of
// --seconds, then the traced engine for tracedShare.
var (
	refShare    = [nPhases]float64{phaseClosed: 0.1, phaseLight: 0.15}
	tracedShare = [nPhases]float64{phaseClosed: 0.2, phaseLight: 0.2, phaseIdle: 0.1, phaseHeavy: 0.25}
)

func share(s [nPhases]float64, ph int, dur time.Duration) time.Duration {
	return time.Duration(s[ph] * float64(dur))
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
	note       string // sample count and context for the report line
}

type result struct {
	correct         bool
	attempted, fail uint64
	metrics         []metric
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload to run")
	seed := flags.Int64("seed", 1, "input seed")
	seconds := flags.Float64("seconds", 10, "measured seconds per run")
	trace := flags.Int("trace", 0, "1: traced run with per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	in := w.inputs(*seed)
	if err := w.check(in); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintln(out, hostLine())
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = untraced(out, w, in, dur)
	} else {
		res, err = traced(out, w, in, dur)
	}
	if err != nil {
		fmt.Fprintln(out, "FAIL", err)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		a, f := uint64(0), uint64(0)
		if res != nil {
			a, f = res.attempted, res.fail
		}
		printJSON(out, &result{attempted: a, fail: f})
		return 1
	}
	for _, mt := range res.metrics {
		fmt.Fprintf(out, "metric %s %.6g %s %s\n", mt.name, mt.value, mt.unit, mt.note)
	}
	printJSON(out, res)
	return 0
}

func printJSON(out io.Writer, r *result) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.fail, ms})
	fmt.Fprintln(out, string(line))
}

// untraced measures the end-to-end metrics. It builds one engine after
// another, each set up from scratch and driven through every phase, and
// reports every metric as the median over the engines, so one engine's luck
// (where its goroutines landed, a stall, a noisy neighbour) moves the result
// by at most one rank.
func untraced(out io.Writer, w *workload, in *inputs, dur time.Duration) (*result, error) {
	focus, goodSt := focusStreams(w, in)
	res := &result{}
	var setups, capacity, cpuPerPkt, goodput []float64
	var lat [nPhases][2][]float64 // [phase][p50, p99], per engine
	var pooled [nPhases]*hist
	for ph := firstOpen; ph < nPhases; ph++ {
		pooled[ph] = newHist()
	}
	var counts opCounts
	for i := 0; i < enginesPerRun; i++ {
		for j := 0; j < setupOnlyPerEngine; j++ {
			b, d, err := setup(w, in, nil)
			if err != nil {
				return res, fmt.Errorf("engine %d set-up only %d: %w", i, j, err)
			}
			err = b.stop()
			if err == nil {
				err = b.sink.check()
			}
			if err != nil {
				return res, fmt.Errorf("engine %d set-up only %d: %w", i, j, err)
			}
			setups = append(setups, d.Seconds())
		}
		b, d, err := setup(w, in, nil)
		if err != nil {
			return res, fmt.Errorf("engine %d set-up: %w", i, err)
		}
		var phases [nPhases]*phaseResult
		for ph := range phases {
			if phases[ph], err = b.runPhase(ph, share(phaseShare, ph, dur)/enginesPerRun); err != nil {
				b.stop()
				return res, fmt.Errorf("engine %d: %w", i, err)
			}
		}
		if err := b.stop(); err != nil {
			return res, fmt.Errorf("engine %d: %w", i, err)
		}
		counts.add(report(out, fmt.Sprintf("engine=%d", i), in, phases[:]))
		res.attempted, res.fail = counts.ops, counts.failed
		if err := b.sink.check(); err != nil {
			return res, fmt.Errorf("engine %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
		closed := phases[phaseClosed]
		capacity = append(capacity, closed.capacity/1e6)
		cpuPerPkt = append(cpuPerPkt, float64(closed.cpu)/float64(closed.streams[b.closedStream()].intact))
		good := phases[phaseHeavy].streams[goodSt]
		goodput = append(goodput, float64(good.intact)/phases[phaseHeavy].wall.Seconds()/1e6)
		for ph := firstOpen; ph < nPhases; ph++ {
			h := phases[ph].streams[focus[ph]].lat
			if h.n == 0 {
				return res, fmt.Errorf("engine %d: no %s packet delivered in the %s phase", i, in.streams[focus[ph]].name, phaseNames[ph])
			}
			lat[ph][0] = append(lat[ph][0], h.quantile(0.5)/1e3)
			lat[ph][1] = append(lat[ph][1], h.quantile(0.99)/1e3)
			pooled[ph].merge(h)
		}
	}
	fmt.Fprintf(out, "ops=%d failed=%d lost=%d shed=%d\n", counts.ops, counts.failed, counts.lost, counts.shed)
	med := func(name, unit string, v []float64, note string) metric {
		return metric{name, unit, median(v), fmt.Sprintf("median of %d engines %v %s", len(v), roundAll(v), note)}
	}
	res.metrics = []metric{
		med("setup_s", "s", setups, ""),
		med("capacity_mpps", "Mpps", capacity, fmt.Sprintf("stream=%s window=%d", w.closedStream, closedWindow)),
		med("closed_cpu_ns_per_pkt", "ns/pkt", cpuPerPkt, "process CPU per delivered packet in the closed loop"),
	}
	// Latency percentiles are per engine, like every other metric, so a
	// noisy stretch of the run that spoils a few engines moves the median
	// by a rank at most. The pooled histogram gives the sample counts and
	// p99.9. Heavy-phase latency is printed but not gated: every workload
	// must report every gated metric, and the overload victim's heavy
	// latency is too unsteady to gate (see meta.json, not_gated).
	for ph := firstOpen; ph < nPhases; ph++ {
		h, st := pooled[ph], in.streams[focus[ph]].name
		for i, pc := range []struct {
			q     float64
			label string
		}{{0.5, "p50"}, {0.99, "p99"}} {
			mt := med(fmt.Sprintf("lat_%s_us.%s", pc.label, phaseNames[ph]), "us", lat[ph][i],
				fmt.Sprintf("stream=%s pooled n=%d beyond=%d", st, h.n, h.beyond(pc.q)))
			if gatedLatency[ph][i] {
				res.metrics = append(res.metrics, mt)
			} else {
				fmt.Fprintf(out, "extra %s %.6g %s %s\n", mt.name, mt.value, mt.unit, mt.note)
			}
		}
		fmt.Fprintf(out, "extra lat_p99.9_us.%s %.6g us stream=%s pooled n=%d beyond=%d\n",
			phaseNames[ph], h.quantile(0.999)/1e3, st, h.n, h.beyond(0.999))
	}
	res.metrics = append(res.metrics, med("goodput_mpps.heavy", "Mpps", goodput, "stream="+in.streams[goodSt].name))
	res.correct = true
	return res, nil
}

// gatedLatency marks the [phase][p50, p99] latencies that are end-to-end
// metrics; the rest are printed as extra lines. The light p50 is not gated:
// the polling generator burns one of the host's CPUs, and how much CPU the
// engine then gets from a shared host moves realnf's light p50 between about
// 200 and 1000 us from run to run. The idle p50 covers the same load
// without that competition.
var gatedLatency = [nPhases][2]bool{
	phaseLight: {false, true},
	phaseIdle:  {true, false},
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// focusStreams picks the streams the end-to-end metrics describe: per
// open-loop phase, the first non-aggressor stream offered in it (the victim
// on the overload workload), and the heaviest stream of the heavy phase for
// goodput (the aggressor there).
func focusStreams(w *workload, in *inputs) (focus [nPhases]int, good int) {
	for ph := firstOpen; ph < nPhases; ph++ {
		for st, s := range in.streams {
			if w.rates[ph][st] > 0 && !s.aggressor {
				focus[ph] = st
				break
			}
		}
	}
	for st, r := range w.rates[phaseHeavy] {
		if r > w.rates[phaseHeavy][good] {
			good = st
		}
	}
	return focus, good
}

// opCounts sorts the packets offered in the measured phases: ops is every
// offered packet, and failed, lost and shed are as streamAcct.outcome
// defines them, failed also counting losses no stage owns (output,
// shutdown, late, remote or corrupt).
type opCounts struct{ ops, failed, lost, shed uint64 }

func (c *opCounts) add(d opCounts) {
	c.ops += d.ops
	c.failed += d.failed
	c.lost += d.lost
	c.shed += d.shed
}

// report prints the per-phase accounting, the generator's timeliness and
// the metrics that are reported but not gated, and returns the op counts.
func report(out io.Writer, label string, in *inputs, phases []*phaseResult) (c opCounts) {
	var processed, wasted uint64
	for _, r := range phases {
		name := phaseNames[r.phase]
		for st, a := range r.streams {
			if a.offered == 0 {
				continue
			}
			s := in.streams[st]
			f, lost, sh := a.outcome(s.aggressor)
			c.add(opCounts{a.offered, f, lost, sh})
			fmt.Fprintf(out, "buckets %s phase=%s stream=%s offered=%d intact=%d lane_refused=%d entry_shed=%d entry_ring=%d mid_ring=%d nf_drop=%d fault=%d failed=%d lost=%d shed=%d\n",
				label, name, s.name, a.offered, a.intact, a.refused, a.shed, a.entryRing, a.mid, a.nf, a.fault, f, lost, sh)
			if r.phase != phaseClosed {
				fmt.Fprintf(out, "extra %s loss_ppm.%s.%s %.6g ppm n=%d\n", label, name, s.name, 1e6*float64(f+lost)/float64(a.offered), a.offered)
				if a.lat.over > 0 {
					fmt.Fprintf(out, "FLAG %s %s.%s: %d latencies beyond the histogram range\n", label, name, s.name, a.lat.over)
				}
			}
		}
		if r.other > 0 {
			fmt.Fprintf(out, "buckets %s phase=%s other=%d\n", label, name, r.other)
			c.failed += r.other
		}
		for _, d := range r.stats {
			processed += d.Processed
			wasted += d.Wasted
		}
		if r.phase != phaseClosed {
			var off, sched uint64
			for _, a := range r.streams {
				off += a.offered
				sched += a.scheduled
			}
			frac := float64(off) / float64(sched)
			behind := frac < 0.99 || r.late.quantile(0.99) > 1e6
			fmt.Fprintf(out, "gen %s phase=%s late_p50_us=%.6g late_p99_us=%.6g offered_frac=%.6f behind=%t\n",
				label, name, r.late.quantile(0.5)/1e3, r.late.quantile(0.99)/1e3, frac, behind)
			if behind {
				fmt.Fprintf(out, "FLAG %s: generator fell behind its schedule in the %s phase\n", label, name)
			}
		}
	}
	if processed > 0 {
		fmt.Fprintf(out, "extra %s wasted_ppm %.6g ppm processed=%d wasted=%d\n", label, 1e6*float64(wasted)/float64(processed), processed, wasted)
	}
	return c
}

func roundAll(v []float64) []string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return s
}

func hostLine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("host cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}
