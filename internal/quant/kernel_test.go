package quant

import (
	"math/rand"
	"testing"

	"sei/internal/obs"
	"sei/internal/tensor"
)

// fieldEval hides the digital evaluator's type, so convStage drives it
// through the generic one-receptive-field-at-a-time StageEval loop.
type fieldEval struct{ StageEval }

// randomKernelNet builds a two-stage net with signed weights on a
// random geometry: stride 1 or 2, no pooling, pool 2 or pool 3 (with
// cropped edges whenever the conv output is not a multiple of 3), a
// multi-channel input, and an FC head over the stage-1 output.
func randomKernelNet(rng *rand.Rand) (*QuantizedNet, *tensor.Tensor) {
	inCh := 1 + rng.Intn(3)
	h, w := 12+rng.Intn(14), 12+rng.Intn(14)
	stage := func(inCh, h, w int) ConvSpec {
		kh, kw := 1+rng.Intn(min(4, h)), 1+rng.Intn(min(4, w))
		wt := tensor.New(1+rng.Intn(5), inCh, kh, kw)
		for i := range wt.Data() {
			wt.Data()[i] = rng.NormFloat64()
		}
		c := ConvSpec{W: wt, Stride: 1 + rng.Intn(2), PoolSize: []int{0, 2, 3}[rng.Intn(3)]}
		if outH, outW, _, _ := c.outDims(h, w); outH < c.PoolSize || outW < c.PoolSize {
			c.PoolSize = 0
		}
		return c
	}
	q := &QuantizedNet{InShape: []int{inCh, h, w}}
	q.Convs = append(q.Convs, stage(inCh, h, w))
	_, _, ph, pw := q.Convs[0].outDims(h, w)
	q.Convs = append(q.Convs, stage(q.Convs[0].Filters(), ph, pw))
	_, _, ph, pw = q.Convs[1].outDims(ph, pw)
	in := q.Convs[1].Filters() * ph * pw
	q.FC = FCSpec{W: tensor.New(3, in), B: []float64{0.1, -0.2, 0.05}}
	for i := range q.FC.W.Data() {
		q.FC.W.Data()[i] = rng.NormFloat64()
	}
	q.Thresholds = make([]float64, 2)
	// Real-valued stage-0 pixels, about a third of them zero.
	img := tensor.New(inCh, h, w)
	for i := range img.Data() {
		if rng.Intn(3) > 0 {
			img.Data()[i] = rng.Float64()
		}
	}
	return q, img
}

// denseSums is the pre-kernel stage-sum reference: Im2Col, then per
// receptive field and filter the dense skip-zero dot of
// digitalEval.EvalConv.
func denseSums(c *ConvSpec, in *tensor.Tensor) []float64 {
	cols := tensor.Im2Col(in, c.W.Dim(2), c.W.Dim(3), c.Stride)
	positions, fan := cols.Dim(0), cols.Dim(1)
	out := make([]float64, c.Filters()*positions)
	for p := 0; p < positions; p++ {
		field := cols.Data()[p*fan : (p+1)*fan]
		for k := 0; k < c.Filters(); k++ {
			row := c.W.Data()[k*fan : (k+1)*fan]
			s := 0.0
			for j, x := range field {
				if x != 0 {
					s += row[j] * x
				}
			}
			out[k*positions+p] = s
		}
	}
	return out
}

// TestGatherKernelMatchesStageEvalLoop pins the digital gather kernel
// to the generic StageEval loop driven by Digital() over random
// geometries: stage sums IEEE-identical to the dense skip-zero dot,
// stage maps, OR-pool counter totals, classifier scores and labels
// identical — with each stage's threshold set exactly equal to one of
// its sums, so the `sum > t` boundary is exercised.
func TestGatherKernelMatchesStageEvalLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		q, img := randomKernelNet(rng)
		rec := obs.New()
		q.Instrument(rec)
		x := img
		for l := range q.Convs {
			c := &q.Convs[l]
			sums := stageSums(c, x)
			want := denseSums(c, x)
			for i, v := range sums.Data() {
				if v != want[i] {
					t.Fatalf("trial %d stage %d: sum %d = %v, dense reference %v", trial, l, i, v, want[i])
				}
			}
			q.Thresholds[l] = want[rng.Intn(len(want))]

			before := rec.CounterValues()[obs.HWORPoolReductions]
			got := q.convStage(q.Digital(), l, x)
			mid := rec.CounterValues()[obs.HWORPoolReductions]
			ref := q.convStage(fieldEval{q.Digital()}, l, x)
			after := rec.CounterValues()[obs.HWORPoolReductions]
			if !tensor.SameShape(got, ref) || !tensor.EqualApprox(got, ref, 0) {
				t.Fatalf("trial %d stage %d (stride %d, pool %d, input %v): kernel map differs from the StageEval loop",
					trial, l, c.Stride, c.PoolSize, x.Shape())
			}
			if mid-before != after-mid {
				t.Fatalf("trial %d stage %d: OR-pool reductions %d, StageEval loop %d", trial, l, mid-before, after-mid)
			}
			x = got
		}
		a, b := q.ForwardWith(q.Digital(), img), q.ForwardWith(fieldEval{q.Digital()}, img)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: score %d = %v, StageEval loop %v", trial, i, a[i], b[i])
			}
		}
		if got, want := q.Predict(img), q.PredictWith(fieldEval{q.Digital()}, img); got != want {
			t.Fatalf("trial %d: Predict = %d, StageEval loop %d", trial, got, want)
		}
		acts := q.BinaryActivations(img)
		for l := 0; l <= len(q.Convs); l++ {
			in := q.StageInput(img, l)
			if l > 0 && !tensor.EqualApprox(in, acts[l-1], 0) {
				t.Fatalf("trial %d: StageInput(%d) differs from BinaryActivations", trial, l)
			}
		}
	}
}

// TestPredictAllocations holds the digital Predict, which runs on the
// pooled stage arena, to at most one allocation per conv stage.
func TestPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	q, _, test := quantizedFixture(t)
	img := test.Images[0]
	if avg := testing.AllocsPerRun(100, func() { q.Predict(img) }); avg > float64(len(q.Convs)) {
		t.Fatalf("Predict allocates %.1f times per call, want at most %d", avg, len(q.Convs))
	}
}

// unwindowedSweep scores every candidate the slow way — binarize at t,
// OR-pool, classify — and derives the SweepStats the sweep engine must
// report from the candidate-to-candidate remainder changes alone, with
// no crossing schedule at all.
func unwindowedSweep(s *crossSweep, data []float64, label int, ts []float64, classify func([]float64) int) ([]int, SweepStats) {
	counts := make([]int, len(ts))
	var st SweepStats
	var prev []float64
	for c, t := range ts {
		bits := binarize(tensor.FromSlice(data, s.filters, s.outH, s.outW), t).Data()
		rem := bits
		if s.pool > 1 {
			rem = make([]float64, s.remLen)
			orPoolInto(rem, bits, s.filters, s.outH, s.outW, s.pool)
		}
		if classify(rem) == label {
			counts[c]++
		}
		changed := 0
		for i := range prev {
			if prev[i] != rem[i] {
				changed++
			}
		}
		switch {
		case c == 0:
			st.RemainderEvals++
		case changed == 0:
			st.RemainderSkipped++
		case s.last:
			st.FCDeltaUpdates += int64(changed)
		default:
			st.RemainderEvals++
		}
		prev = rem
	}
	st.Evaluations = int64(len(ts))
	return counts, st
}

// TestWindowedScheduleMatchesUnwindowed pins the windowed crossing
// schedule on values sitting exactly at ts[0], at an inner candidate
// and at ts[last], and on samples entirely below ts[0] or above
// ts[last]: per-candidate counts and SweepStats equal the unwindowed
// evaluation, on the FC delta path and the remainder path, pooled
// (with cropped edges) and unpooled.
func TestWindowedScheduleMatchesUnwindowed(t *testing.T) {
	ts := []float64{0.25, 0.5, 0.75, 1}
	rng := rand.New(rand.NewSource(4))
	const filters, outH, outW = 2, 5, 5
	n := filters * outH * outW
	var samples [][]float64
	mixed := make([]float64, n)
	for i := range mixed {
		mixed[i] = rng.Float64() * 1.25
	}
	mixed[0], mixed[7], mixed[13], mixed[31] = ts[0], ts[2], ts[len(ts)-1], ts[2]
	below, above := make([]float64, n), make([]float64, n)
	for i := range below {
		below[i] = ts[0] - rng.Float64()*0.3
		above[i] = ts[len(ts)-1] + 0.01 + rng.Float64()
	}
	below[3] = ts[0]
	for k := 0; k < 6; k++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64() * 1.25
			if rng.Intn(4) == 0 {
				s[i] = ts[rng.Intn(len(ts))]
			}
		}
		samples = append(samples, s)
	}
	samples = append(samples, mixed, below, above)

	for _, pool := range []int{0, 2} {
		remLen := n
		if pool > 1 {
			remLen = filters * (outH / pool) * (outW / pool)
		}
		// Dyadic weights keep every FC sum exact, so delta updates and
		// fresh folds agree bit for bit.
		fcW := tensor.New(3, remLen)
		for i := range fcW.Data() {
			fcW.Data()[i] = float64(rng.Intn(17)-8) / 4
		}
		fcB := []float64{0.5, 0, -0.5}
		classify := func(rem []float64) int {
			y := make([]float64, len(fcB))
			tensor.MatVecInto(y, fcW, rem)
			for o, b := range fcB {
				y[o] += b
			}
			return argmaxFirst(y)
		}
		remEval := func() func(*tensor.Tensor) int {
			return func(r *tensor.Tensor) int { return classify(r.Data()) }
		}
		for _, last := range []bool{true, false} {
			newRem := remEval
			if last {
				newRem = nil
			}
			s := newCrossSweep([]int{filters, outH, outW}, pool, fcW, fcB, newRem)
			labels := make([]int, len(samples))
			for i := range labels {
				labels[i] = i % 3
			}
			var stats SweepStats
			got := s.run(samples, labels, ts, 1, nil, &stats)
			want := make([]int, len(ts))
			var wantStats SweepStats
			for i, d := range samples {
				c, st := unwindowedSweep(s, d, labels[i], ts, classify)
				for k := range c {
					want[k] += c[k]
				}
				wantStats.add(st)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("pool=%d last=%v: counts %v, unwindowed %v", pool, last, got, want)
				}
			}
			if stats != wantStats {
				t.Fatalf("pool=%d last=%v: stats %+v, unwindowed %+v", pool, last, stats, wantStats)
			}
		}
	}
}
