package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/nfs"
	"nfvnice/internal/packet"
	"nfvnice/internal/proto"
)

// Frame layout: Ethernet+IPv4+UDP headers, then the benchmark header at the
// start of the UDP payload.
const (
	hdrOff = proto.EthernetHeaderLen + proto.IPv4MinHeaderLen + proto.UDPHeaderLen
	hdrLen = 22 // flow u32, seq u32, due i64, lane index u32, checksum u16
	// minPayload is the payload of a 64 B frame: exactly the header.
	minPayload = 64 - hdrOff
)

// Phase indexes, in the order the phases run. Warm-up traffic carries
// phaseWarm and is not measured. The light and idle phases offer the same
// load; they differ only in how the generator waits for the next due time
// (see gen.openLoop).
const (
	phaseClosed = iota
	phaseLight
	phaseIdle
	phaseHeavy
	nPhases
	firstOpen = phaseClosed + 1 // the open-loop phases follow the closed one
	phaseWarm = -1
)

var phaseNames = [nPhases]string{"closed", "light", "idle", "heavy"}

// flow is one benchmark flow: its 5-tuple and the stream it belongs to.
type flow struct {
	src, dst     proto.IPv4Addr
	sport, dport uint16
	key          packet.FlowKey
	stream       int
}

// stream is one chain's traffic: the packet sequence it cycles through
// (flow index << 2 | size class), Poisson inter-arrival gaps with mean 1,
// and the payload length of each size class. Streams are read-only once
// built; generator state lives in gen.
type stream struct {
	name  string
	chain int // engine flow id, mapped to the chain of the same index
	seq   []uint32
	gaps  []float64
	sizes [4]int
	// aggressor marks traffic whose lane refusals and entry sheds are the
	// intended outcome (reported as shed, not as failures).
	aggressor bool
	// slots are the chain's stages as slot indexes, entry first.
	slots []int
}

// inputs is everything a workload's generator draws from, built from the seed.
type inputs struct {
	flows   []flow
	streams []*stream
}

// workload describes one benchmark workload.
type workload struct {
	name      string
	stages    []string // stage names in slot order
	frameSize int
	// director routes every packet through a frontend.Director whose table
	// holds directorCap flows.
	directorCap int
	// closedStream is the stream driven in the closed-loop phase.
	closedStream string
	// spanFocus is the phase whose spans give the traced run's per-stage
	// latency components.
	spanFocus int
	// rates are the frozen open-loop offered rates in packets per second,
	// per phase and per stream in the order inputs adds the streams. They
	// were derived once from the parent commit's closed-loop capacity on a
	// 2-vCPU Xeon VM, so a faster change faces the same load.
	rates  [nPhases][]float64
	inputs func(seed int64) *inputs
	// handler returns a fresh stage handler for a slot.
	handler func(slot int) dataplane.BatchHandler
}

const seqLen = 1 << 20

func workloads() []*workload {
	return []*workload{
		{
			name:         "noop-chain3-64b",
			stages:       []string{"nf0", "nf1", "nf2"},
			frameSize:    64,
			closedStream: "main",
			spanFocus:    phaseLight,
			rates: [nPhases][]float64{
				// 17% of the parent's capacity (1.43 Mpps): idle
				// cores, so the idle-to-wake path runs.
				phaseLight: {250e3},
				phaseIdle:  {250e3},
				// 49%: sustained batching; at 70% throttle cycling
				// made latency and loss unsteady.
				phaseHeavy: {700e3},
			},
			inputs: func(seed int64) *inputs {
				rng := rand.New(rand.NewSource(seed))
				in := &inputs{}
				st := newStream(in, "main", 0, []int{0, 1, 2}, [4]int{minPayload})
				addFlows(in, 1)
				fillSeq(st, rng, func() (int, int) { return 0, 0 })
				return in
			},
			handler: func(int) dataplane.BatchHandler { return func([]*dataplane.Packet) {} },
		},
		{
			name:         "realnf-chain3-imix",
			stages:       []string{"firewall", "nat", "monitor"},
			frameSize:    1518,
			directorCap:  realNFFlows / 2,
			closedStream: "main",
			spanFocus:    phaseLight,
			rates: [nPhases][]float64{
				// 23% of the parent's capacity (0.66 Mpps).
				phaseLight: {150e3},
				phaseIdle:  {150e3},
				// 57%, the same regime as noop's heavy phase.
				phaseHeavy: {375e3},
			},
			inputs: func(seed int64) *inputs {
				rng := rand.New(rand.NewSource(seed))
				in := &inputs{}
				st := newStream(in, "main", 0, []int{0, 1, 2}, [4]int{64 - hdrOff, 594 - hdrOff, 1518 - hdrOff})
				addFlows(in, realNFFlows)
				pick := paretoPicker(rng, realNFFlows)
				fillSeq(st, rng, func() (int, int) {
					// IMIX 64/594/1518 at 7:4:1.
					c := 0
					switch r := rng.Intn(12); {
					case r >= 11:
						c = 2
					case r >= 7:
						c = 1
					}
					return pick(), c
				})
				return in
			},
			handler: func(slot int) dataplane.BatchHandler {
				switch slot {
				case 0:
					return nfs.AdaptBatch(nfs.NewFirewall(nfs.Accept))
				case 1:
					return nfs.AdaptBatch(nfs.NewNAT(proto.Addr4(203, 0, 113, 1), nil))
				default:
					return nfs.AdaptBatch(nfs.NewMonitor())
				}
			},
		},
		{
			name:         "shared-core-overload",
			stages:       []string{"v.fw", "v.mon", "a.fw", "a.dpi"},
			frameSize:    1500,
			closedStream: "aggressor",
			spanFocus:    phaseHeavy, // the shared-core contention needs the aggressor
			rates: [nPhases][]float64{
				// The victim alone at noop's light rate: at 100 kpps
				// its p50 switched between 130 and 300-500 us from
				// run to run.
				phaseLight: {250e3, 0},
				phaseIdle:  {250e3, 0},
				// The victim's paced load beside the aggressor at
				// 2.2x the firewall-DPI chain's isolated capacity
				// (0.139 Mpps on the parent).
				phaseHeavy: {100e3, 300e3},
			},
			inputs: func(seed int64) *inputs {
				rng := rand.New(rand.NewSource(seed))
				in := &inputs{}
				v := newStream(in, "victim", 0, []int{0, 1}, [4]int{minPayload})
				addFlows(in, overloadFlows)
				a := newStream(in, "aggressor", 1, []int{2, 3}, [4]int{1500 - hdrOff})
				a.aggressor = true
				addFlows(in, overloadFlows)
				fillSeq(v, rng, func() (int, int) { return rng.Intn(overloadFlows), 0 })
				fillSeq(a, rng, func() (int, int) { return overloadFlows + rng.Intn(overloadFlows), 0 })
				return in
			},
			handler: func(slot int) dataplane.BatchHandler {
				switch slot {
				case 0, 2:
					return nfs.AdaptBatch(nfs.NewFirewall(nfs.Accept))
				case 1:
					return nfs.AdaptBatch(nfs.NewMonitor())
				default:
					return nfs.AdaptBatch(nfs.NewDPI(dpiPatterns, false))
				}
			},
		},
	}
}

const (
	realNFFlows   = 16384
	overloadFlows = 64
)

// dpiPatterns is a small IDS signature set; the DPI runs in detect-only mode
// so a chance match never drops a packet.
var dpiPatterns = [][]byte{
	[]byte("/etc/passwd"), []byte("cmd.exe"), []byte("<script>"),
	[]byte("SELECT * FROM"), []byte("\x90\x90\x90\x90\x90\x90\x90\x90"),
	[]byte("User-Agent: sqlmap"), []byte("../../.."), []byte("wget http://"),
}

// check rejects a workload whose rate table does not cover its streams, so
// a missing rate cannot leave a phase without traffic.
func (w *workload) check(in *inputs) error {
	for ph := firstOpen; ph < nPhases; ph++ {
		r := w.rates[ph]
		if len(r) != len(in.streams) {
			return fmt.Errorf("workload %s: %d rates in the %s phase for %d streams", w.name, len(r), phaseNames[ph], len(in.streams))
		}
		total := 0.0
		for _, x := range r {
			total += x
		}
		if total <= 0 {
			return fmt.Errorf("workload %s: no load in the %s phase", w.name, phaseNames[ph])
		}
	}
	return nil
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func newStream(in *inputs, name string, chain int, slots []int, sizes [4]int) *stream {
	st := &stream{name: name, chain: chain, slots: slots, sizes: sizes}
	in.streams = append(in.streams, st)
	return st
}

// addFlows appends n flows for the stream added last: distinct sources in
// 10/8 toward one service address, the many-clients-one-service shape NAT
// chains serve.
func addFlows(in *inputs, n int) {
	si := len(in.streams) - 1
	for i := 0; i < n; i++ {
		g := len(in.flows)
		f := flow{
			src:    proto.Addr4(10, byte(si), byte(g>>8), byte(g)),
			dst:    proto.Addr4(198, 51, 100, 7),
			sport:  uint16(10000 + g),
			dport:  53,
			stream: si,
		}
		f.key = packet.FlowKey{SrcIP: uint32(f.src), DstIP: uint32(f.dst),
			SrcPort: f.sport, DstPort: f.dport, Proto: packet.UDP}
		in.flows = append(in.flows, f)
	}
}

// fillSeq draws the stream's packet sequence and its Poisson gaps.
func fillSeq(st *stream, rng *rand.Rand, next func() (flow, class int)) {
	st.seq = make([]uint32, seqLen)
	st.gaps = make([]float64, seqLen)
	for i := range st.seq {
		f, c := next()
		st.seq[i] = uint32(f)<<2 | uint32(c)
		st.gaps[i] = rng.ExpFloat64()
	}
}

// paretoPicker draws flow indexes with bounded-Pareto popularity: each flow
// gets a weight from a bounded Pareto (shape 1.2, range 1..1000), so a few
// flows carry most packets while the cold tail still misses the director's
// table.
func paretoPicker(rng *rand.Rand, n int) func() int {
	const alpha, lo, hi = 1.2, 1.0, 1000.0
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		u := rng.Float64()
		w := lo / math.Pow(1-u*(1-math.Pow(lo/hi, alpha)), 1/alpha)
		total += w
		cum[i] = total
	}
	return func() int {
		return sort.SearchFloat64s(cum, rng.Float64()*total)
	}
}
