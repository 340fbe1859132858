package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // the median of 19 has 9 beyond
		{20, 0.50, true},
		{40, 0.75, true},
		{100, 0.90, true},
		{200, 0.95, true},
		{999, 0.95, true}, // p99 of 999 has 9 beyond
		{1000, 0.99, true},
		{100000, 0.99, true}, // never above p99
	} {
		q, ok := tailPercentile(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, q) < minBeyond {
			t.Errorf("n=%d q=%v: only %d samples beyond", tc.n, q, beyond(tc.n, q))
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	d := summarize(seq(1000)) // values 1..1000
	if d.N != 1000 || d.TailQ != 0.99 || d.Tail != 990 {
		t.Fatalf("got N=%d TailQ=%v Tail=%v, want 1000, 0.99, 990", d.N, d.TailQ, d.Tail)
	}
	if d.P50 != 500.5 {
		t.Fatalf("P50 = %v, want 500.5", d.P50)
	}
	// Exactly ten samples (991..1000) lie beyond the reported p99.
	if got := beyond(1000, 0.99); got != 10 {
		t.Fatalf("beyond(1000, 0.99) = %d, want 10", got)
	}
	small := summarize(seq(5))
	if small.TailQ != 1 || small.Tail != 5 {
		t.Fatalf("small sample: %+v; want the max as tail", small)
	}
}

func TestLatenessClampsEarlySends(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms}
	sent := []time.Duration{ms, 9 * ms, 23 * ms}
	got := lateness(due, sent)
	want := []float64{0.001, 0, 0.003}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("lateness = %v, want %v", got, want)
		}
	}
}

func TestFailedShare(t *testing.T) {
	if got := failedShare(0, 0); got != 0 {
		t.Fatalf("failedShare(0,0) = %v", got)
	}
	if got := failedShare(3, 300); got != 0.01 {
		t.Fatalf("failedShare(3,300) = %v", got)
	}
	lim := capacityLimits{TailMax: 0.010, FailedShare: 0.01}
	ok := stepResult{Sent: 300, Failed: 3, Tail: 0.005}
	if !lim.meets(ok) {
		t.Fatal("1% failed must meet a 1% limit")
	}
	ok.Failed = 4
	if lim.meets(ok) {
		t.Fatal("4 of 300 failed must miss a 1% limit")
	}
	if lim.meets(stepResult{}) {
		t.Fatal("a probe that sent nothing must not pass")
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if backlogGrowing(flat, 0) {
		t.Fatal("flat latencies flagged as a growing backlog")
	}
	rising := []float64{1, 1, 2, 3, 4, 5, 6, 7}
	if !backlogGrowing(rising, 0) {
		t.Fatal("rising latencies not flagged")
	}
	if backlogGrowing(rising, 10) {
		t.Fatal("rise within slack flagged")
	}
}

// fakeProbe passes every probe at or below its capacity.
func fakeProbe(capacity float64, calls *[]float64) func(float64) (stepResult, bool) {
	return func(rate float64) (stepResult, bool) {
		*calls = append(*calls, rate)
		r := stepResult{Rate: rate, Sent: 1000, Tail: 0.002}
		if rate > capacity {
			r.Tail = 0.050
		}
		return r, true
	}
}

func TestSearchCapacityBrackets(t *testing.T) {
	lim := capacityLimits{TailMax: 0.010, FailedShare: 0.01}
	for _, capacity := range []float64{130, 1000, 1234, 5000} {
		var calls []float64
		got, steps := searchCapacity(250, 2, 0.02, 30, lim, fakeProbe(capacity, &calls))
		if got > capacity || got < capacity*0.98 {
			t.Errorf("capacity %v: search returned %v (probes %v)", capacity, got, calls)
		}
		if len(steps) != len(calls) {
			t.Errorf("capacity %v: %d steps recorded for %d probes", capacity, len(steps), len(calls))
		}
		calls = nil
		if got, _ := searchCapacity(900, 1.25, 0.03, 30, lim, fakeProbe(capacity, &calls)); got > capacity || got < capacity*0.97 {
			t.Errorf("capacity %v, grow 1.25: search returned %v (probes %v)", capacity, got, calls)
		}
	}
}

func TestSearchCapacityStopsWhenProbeDeclines(t *testing.T) {
	lim := capacityLimits{TailMax: 0.010, FailedShare: 0.01}
	n := 0
	got, steps := searchCapacity(100, 2, 0.01, 30, lim, func(rate float64) (stepResult, bool) {
		n++
		if n > 2 {
			return stepResult{}, false
		}
		return stepResult{Rate: rate, Sent: 10, Tail: 0.001}, true
	})
	if got != 200 || len(steps) != 2 {
		t.Fatalf("got capacity %v after %d steps, want 200 after 2", got, len(steps))
	}
	// Nothing passes: capacity is 0 and the search halves downwards.
	var calls []float64
	got, _ = searchCapacity(100, 2, 0.01, 4, lim, fakeProbe(1, &calls))
	if got != 0 || calls[1] != 50 || calls[3] != 12.5 {
		t.Fatalf("got %v with probes %v, want 0 with halving probes", got, calls)
	}
	// Failed share alone fails a probe.
	got, _ = searchCapacity(100, 2, 0.01, 3, lim, func(rate float64) (stepResult, bool) {
		return stepResult{Rate: rate, Sent: 100, Failed: 2, Tail: 0.001}, true
	})
	if got != 0 {
		t.Fatalf("probes with 2%% failed passed: capacity %v", got)
	}
}

func TestSegmentedIgnoresAMinorityStall(t *testing.T) {
	xs := make([]float64, 5*segmentSize)
	for i := range xs {
		xs[i] = float64(i % 100) // every segment: p50 49.5, p99 98
	}
	for i := segmentSize; i < 3*segmentSize; i++ {
		xs[i] += 1000 // two of five segments slowed by a stall
	}
	d := segmented(xs)
	if d.N != len(xs) || d.P50 != 49.5 || d.Tail != 98 || d.TailQ != 0.99 {
		t.Fatalf("segmented = %+v; want P50 49.5, p99 98", d)
	}
	if whole := summarize(xs); whole.Tail < 1000 {
		t.Fatalf("whole-series tail = %v; the stall should dominate it", whole.Tail)
	}
	short := xs[:2*segmentSize-1]
	if got := segmented(short); got.N != len(short) || got.Tail != summarize(short).Tail {
		t.Fatalf("short series must be summarized whole: %+v", got)
	}
}

func TestPerInputKeepsTheFastestPassOfEachInput(t *testing.T) {
	const n, passes = 1000, 5
	xs := make([]float64, n*passes)
	for p := 0; p < passes; p++ {
		for j := 0; j < n; j++ {
			xs[p*n+j] = float64(j%100 + 1) // input j always costs j%100+1
		}
	}
	// A stall slows every sample of three passes, and scattered samples
	// of a fourth; one pass of each input ran undisturbed.
	for i := n; i < 4*n; i++ {
		xs[i] += 1000
	}
	for i := 4 * n; i < 5*n; i += 7 {
		xs[i] += 1000
	}
	d := perInput(xs, n)
	if d.N != len(xs) || d.P50 != 50.5 || d.Tail != 99 || d.TailQ != 0.99 {
		t.Fatalf("perInput = %+v; want P50 50.5, p99 99 over %d samples", d, len(xs))
	}
	if whole := summarize(xs); whole.Tail < 1000 {
		t.Fatalf("whole-series tail = %v; the stall should dominate it", whole.Tail)
	}
	// Slower inputs still move the tail.
	for p := 0; p < passes; p++ {
		for j := 0; j < n; j += 50 {
			xs[p*n+j] += 500
		}
	}
	if got := perInput(xs, n); got.Tail < 500 {
		t.Fatalf("2%% slower inputs left the tail at %v", got.Tail)
	}
	if got := perInput(xs[:n-1], n); got.N != n-1 || got.Tail != summarize(xs[:n-1]).Tail {
		t.Fatalf("less than one pass must be summarized whole: %+v", got)
	}
}

func TestFastest(t *testing.T) {
	if got := fastest([]float64{3, 1.5, 2, 9}); got != 1.5 {
		t.Fatalf("fastest = %v, want 1.5", got)
	}
	if fastest(nil) != 0 {
		t.Fatal("fastest of nothing must be 0")
	}
}
