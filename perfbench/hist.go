package main

import "math/bits"

// hist is a log-linear histogram of non-negative nanosecond values: values
// below 2^subBits land in exact buckets, larger ones in 2^subBits buckets per
// power of two (relative bucket width under 0.4%). The range reaches 2^maxExp
// ns (about 18 minutes), so an overload tail is never clamped; larger values
// are counted in the last bucket and reported through over. (The
// power-of-two buckets of internal/stats.Histogram are within a factor of two,
// far too coarse to hold a metric to a 25% bound.)
type hist struct {
	counts []uint64
	n      uint64
	over   uint64
}

const (
	subBits = 8
	subN    = 1 << subBits
	maxExp  = 40
)

func newHist() *hist {
	return &hist{counts: make([]uint64, (maxExp-subBits+1)*subN)}
}

func bucketOf(v int64) int {
	if v < subN {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)*subN + int(uint64(v)>>shift) - subN
}

// bucketRange reports bucket b's value range [lo, hi).
func bucketRange(b int) (lo, hi float64) {
	if b < subN {
		return float64(b), float64(b + 1)
	}
	shift := b/subN - 1
	m := b%subN + subN
	return float64(uint64(m) << shift), float64(uint64(m+1) << shift)
}

func (h *hist) record(v int64) {
	b := bucketOf(v)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
		h.over++
	}
	h.counts[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.over += o.over
}

// quantile returns the q-quantile, interpolated linearly by rank inside the
// bucket that holds it, so it reads as a continuous value rather than a
// bucket edge. It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, hi := bucketRange(b)
			return lo + (hi-lo)*(rank-float64(cum)+0.5)/float64(c)
		}
		cum += c
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return lo
}

// beyond reports how many samples lie above the q-quantile: the sample count
// that supports it.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(q*float64(h.n))
}
