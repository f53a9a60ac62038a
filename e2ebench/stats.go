package main

import (
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is chosen from, highest
// first. A short fixed ladder keeps the reported percentile the same
// from run to run while the sample count stays within a decade: p99
// needs about 1000 samples, p90 about 100. p99.9 is left out: the ten
// samples beyond it are scheduler noise on a small shared host.
var tailLadder = []float64{99, 90, 50}

// minBeyond is how many samples must lie strictly above a percentile's
// rank for it to count as a tail.
const minBeyond = 10

// timing is a latency distribution summarised as the benchmark reports
// it: a median and a tail, with the tail's percentile and the sample
// count.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
}

// rank returns the 0-based nearest-rank index of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	k := int(float64(n)*p/100+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// tailPercentile returns the highest ladder percentile that has at
// least minBeyond samples beyond its rank, or false when n is too
// small for any of them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-(rank(p, n)+1) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// summarize sorts ms in place and returns its timing. With too few
// samples for any tail the tail is the maximum, reported as the 100th
// percentile so it cannot be mistaken for a ladder value.
func summarize(ms []float64) timing {
	if len(ms) == 0 {
		return timing{}
	}
	sort.Float64s(ms)
	t := timing{N: len(ms), P50: ms[rank(50, len(ms))]}
	if p, ok := tailPercentile(len(ms)); ok {
		t.TailPct, t.Tail = p, ms[rank(p, len(ms))]
	} else {
		t.TailPct, t.Tail = 100, ms[len(ms)-1]
	}
	return t
}

// rateWindow is the window length of windowRate. Collections and other
// program work that recur at least once a second fall in every window
// and so count in full; rarer pauses show in the per-layer tails.
const rateWindow = time.Second

// windowRate returns the median, over the whole windows of length w that
// fit in elapsed, of the operations completed per second in a window; at
// holds each operation's completion time since the measurement began.
// A run shorter than one window returns its mean rate. The median keeps
// a window in which a neighbour on a shared host stalled the process
// from moving the figure.
func windowRate(at []time.Duration, elapsed, w time.Duration) float64 {
	n := int(elapsed / w)
	if n == 0 {
		return ratio(float64(len(at)), elapsed.Seconds())
	}
	rates := make([]float64, n)
	for _, t := range at {
		if i := int(t / w); i < n {
			rates[i] += 1 / w.Seconds()
		}
	}
	return median(rates)
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(50, len(s))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
