package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one outlier, not a distribution.
const minBeyond = 10

// tailLadder lists the percentiles a tail is reported at, highest
// first. The highest one with at least minBeyond samples beyond it is
// used, so a small sample reports p95 or p90 instead of a p99 that one
// sample would decide.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// dist is a timing distribution reduced to the figures the benchmark
// reports.
type dist struct {
	N     int
	P50   float64
	TailQ float64 // the percentile Tail was taken at, e.g. 0.99
	Tail  float64
}

// beyond returns how many of n sorted samples lie above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - rank(n, q) - 1
}

// rank is the 0-based index of the nearest-rank q-quantile of n
// sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it; ok is false when even the median
// has fewer.
func tailPercentile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// summarize sorts a copy of xs and reduces it to a dist. The median
// and tail are nearest-rank order statistics (no interpolation), so
// every reported value is one that was measured.
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.P50 = median(s)
	if q, ok := tailPercentile(len(s)); ok {
		d.TailQ, d.Tail = q, s[rank(len(s), q)]
	} else {
		d.TailQ, d.Tail = 1, s[len(s)-1]
	}
	return d
}

// segmentSize is how many samples a segment of a latency series holds:
// the fewest whose p99 has minBeyond samples beyond it, so a regression
// that slows one call in a hundred moves every segment's tail.
const segmentSize = 1000

// segmented splits a latency series (in time order) into consecutive
// segments of at least segmentSize samples, summarizes each under the
// percentile rule, and reports the median across segments of their
// medians and of their tails. On a shared host a whole run's p99 is
// set by the host's stalls (it swung 180–290 µs between processes for
// a 140 µs Predict); a stall in a minority of segments moves neither
// figure. With fewer than 2·segmentSize samples it is summarize over
// the whole series.
func segmented(xs []float64) dist {
	k := len(xs) / segmentSize
	if k < 2 {
		return summarize(xs)
	}
	var p50s, tails []float64
	d := dist{N: len(xs), TailQ: 1}
	for i := 0; i < k; i++ {
		s := summarize(xs[i*len(xs)/k : (i+1)*len(xs)/k])
		p50s, tails = append(p50s, s.P50), append(tails, s.Tail)
		d.TailQ = math.Min(d.TailQ, s.TailQ)
	}
	d.P50, d.Tail = median(p50s), median(tails)
	return d
}

// perInput reduces latencies of repeated passes over the same n inputs
// (sample i is input i mod n) to each input's fastest latency across
// the passes, and summarizes those n figures under the percentile rule:
// P50 is the typical input's latency and Tail that of the slowest
// inputs, the ones whose work is largest. A host stall or a busy
// neighbour slows some samples of some passes; it moves an input's
// figure only if it slowed every pass of that input. See fastest.
func perInput(xs []float64, n int) dist {
	if n <= 0 || len(xs) < n {
		return summarize(xs)
	}
	passes := len(xs) / n
	figs := make([]float64, n)
	col := make([]float64, passes)
	for j := range figs {
		for p := range col {
			col[p] = xs[p*n+j]
		}
		figs[j] = fastest(col)
	}
	d := summarize(figs)
	d.N = passes * n
	return d
}

// fastest is the smallest of xs, 0 for none: the time a repeated piece
// of work takes when nothing else on the host gets in its way. Timings
// of repeated work use it in place of the median because the shared
// 2-CPU host switches, every few tens of milliseconds, between two
// speeds (a one-caller Predict at about 88 or about 140 µs per image)
// in a proportion that changes from minute to minute. A median or any
// other middle quantile follows that proportion: over seven runs of the
// same code a per-input median p50 spread by 34 % of its median, an
// upper quartile by 13 %, the fastest by 0.3 %.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// median of xs (any order); the mean of the two middle values for an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// failedShare is failed/attempted, 0 when nothing was attempted.
func failedShare(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// lateness is how far behind its schedule the generator sent each
// request: sent − due, clamped at zero (an early send is on time).
func lateness(due, sent []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if l := sent[i] - due[i]; l > 0 {
			out[i] = l.Seconds()
		}
	}
	return out
}

// backlogGrowing reports whether latencies (in schedule order) rose
// across a step: the median of the last quarter exceeds twice the
// median of the first quarter plus slack. A queue that keeps growing
// shows up here even when the step is too short for its tail
// percentile to cross the limit.
func backlogGrowing(lat []float64, slack float64) bool {
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	first, last := median(lat[:q]), median(lat[len(lat)-q:])
	return last > 2*first+slack
}

// stepResult is one capacity probe at a fixed offered rate.
type stepResult struct {
	Rate    float64
	Sent    int
	Failed  int     // non-200 responses
	Tail    float64 // latency at TailQ, seconds
	TailQ   float64
	Backlog bool
	Passed  bool
}

// capacityLimits is the service objective a capacity probe must meet.
type capacityLimits struct {
	TailMax     float64 // seconds, at the reported tail percentile
	FailedShare float64 // highest allowed failed share
}

// meets applies the limits to one probe: tail latency within TailMax,
// failed share within FailedShare, and no growing backlog.
func (l capacityLimits) meets(r stepResult) bool {
	return r.Sent > 0 && r.Tail <= l.TailMax &&
		failedShare(r.Failed, r.Sent) <= l.FailedShare && !r.Backlog
}

// searchCapacity finds the highest offered rate whose probe meets the
// limits: it multiplies the rate by grow from start until a probe
// fails (dividing instead while nothing has passed), then bisects the
// bracket until it is narrower than tol (relative) or maxSteps probes
// have run. probe returns false to stop early (out of time). It
// returns the highest passing rate — 0 when none passed — and every
// probe in order.
func searchCapacity(start, grow, tol float64, maxSteps int, limits capacityLimits, probe func(rate float64) (stepResult, bool)) (float64, []stepResult) {
	var steps []stepResult
	lo, hi := 0.0, math.Inf(1)
	rate := start
	for len(steps) < maxSteps {
		r, ok := probe(rate)
		if !ok {
			break
		}
		r.Passed = limits.meets(r)
		steps = append(steps, r)
		if r.Passed {
			lo = math.Max(lo, rate)
		} else {
			hi = math.Min(hi, rate)
		}
		switch {
		case math.IsInf(hi, 1):
			rate *= grow
		case lo == 0:
			rate /= grow
		default:
			if (hi-lo)/lo <= tol {
				return lo, steps
			}
			rate = (lo + hi) / 2
		}
	}
	return lo, steps
}
