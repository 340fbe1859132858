package quant

// The crossing-aware incremental sweep engine behind SearchThresholds
// and RefineThresholds.
//
// Both calibration loops score a list of ascending candidate
// thresholds t₁ < t₂ < … for one conv stage by counting how many
// samples the rest of the network classifies correctly when that
// stage binarizes at t. The naive form pays a full remainder forward
// pass per (sample, candidate) pair. The engine exploits the crossing
// invariant instead: a stage output bit is on iff its analog value v
// exceeds t, so as t ascends bits only ever turn off, exactly when t
// crosses v. Sorting each sample's crossing window once — the outputs
// in (t₁, t_last], the only ones that can cross — yields the full
// crossing schedule; between consecutive candidates with no crossing
// (the common case — the paper's Table 1 long-tail observation) the
// bitmap, hence the prediction, is provably unchanged and the
// remainder evaluation is skipped outright. OR pooling absorbs further
// work: a crossing only reaches the remainder when it empties its pool
// window (the pooled bit's live count hits zero).
//
// For the last conv stage the remainder is just the FC classifier, and
// a pooled bit turning off changes the scores by exactly minus its
// weight column: y -= W[:,j], an O(classes) delta update in place of a
// full MatVec. Delta updates are exact in real arithmetic; in floats
// they can differ from a fresh fold by an ulp, which cannot flip an
// argmax unless two class scores tie to ~1e-15 — the property tests
// pin bit-identical reports on every supported configuration.
//
// All per-sample state lives in sweepArenas pooled per crossSweep
// (sync.Pool, the seicore seiScratch pattern): a chunk body takes an
// arena, sweeps its samples, and returns it, so steady-state candidate
// scoring allocates nothing. Chunk boundaries and chunk-order folds
// come from internal/par, so results are bit-identical at every worker
// count.

import (
	"cmp"
	"slices"
	"sync"

	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/tensor"
)

// crossSweep scores candidate thresholds for one conv stage with the
// crossing-aware incremental schedule. It is parameterized over the
// remainder evaluator, so the greedy search (float remainder) and the
// refinement (binarized remainder) share the sweep core.
type crossSweep struct {
	filters, outH, outW int // swept stage's conv-output geometry
	pool                int // OR-pool window (≤1 = no pooling)
	pooledH, pooledW    int
	planeLen            int // outH*outW
	outLen              int // filters*planeLen

	// last marks the final conv stage: the remainder is the FC
	// classifier, maintained incrementally via delta updates.
	last     bool
	fcW      *tensor.Tensor
	fcB      []float64
	remShape []int // shape of the remainder input (pooled 0/1 map)
	remLen   int

	// newRem builds one arena's remainder evaluator — a closure owning
	// its scratch buffers that classifies a remainder input. Nil when
	// last.
	newRem func() func(*tensor.Tensor) int

	arenas sync.Pool
}

// newCrossSweep builds the sweep for a stage with conv outputs of
// shape [filters, outH, outW] and the given OR-pool window. fcW/fcB
// are the classifier weights (used for the delta path when newRem is
// nil, marking the last stage).
func newCrossSweep(outShape []int, pool int, fcW *tensor.Tensor, fcB []float64, newRem func() func(*tensor.Tensor) int) *crossSweep {
	s := &crossSweep{
		filters: outShape[0], outH: outShape[1], outW: outShape[2],
		pool:   pool,
		last:   newRem == nil,
		fcW:    fcW,
		fcB:    fcB,
		newRem: newRem,
	}
	s.planeLen = s.outH * s.outW
	s.outLen = s.filters * s.planeLen
	if pool > 1 {
		s.pooledH, s.pooledW = s.outH/pool, s.outW/pool
		s.remShape = []int{s.filters, s.pooledH, s.pooledW}
	} else {
		s.remShape = []int{s.filters, s.outH, s.outW}
	}
	s.remLen = s.remShape[0] * s.remShape[1] * s.remShape[2]
	return s
}

// sweepArena is one goroutine's scratch for sweeping samples: the
// windowed crossing schedule, the pool-window live counts, the
// remainder input, and the incrementally maintained classifier scores.
type sweepArena struct {
	sched   []crossing // window entries, ascending by (value, index)
	cnt     []int32    // live bits per pool window (pool > 1 only)
	rem     *tensor.Tensor
	y       []float64 // classifier scores (last stage only)
	remEval func(*tensor.Tensor) int
}

// crossing is one schedule entry: a stage output's value and index.
type crossing struct {
	v float64
	j int32
}

func (s *crossSweep) getArena() *sweepArena {
	if a, ok := s.arenas.Get().(*sweepArena); ok {
		return a
	}
	a := &sweepArena{
		sched: make([]crossing, 0, s.outLen),
		rem:   tensor.New(s.remShape...),
	}
	if s.pool > 1 {
		a.cnt = make([]int32, s.remLen)
	}
	if s.last {
		a.y = make([]float64, len(s.fcB))
	} else {
		a.remEval = s.newRem()
	}
	return a
}

// pooledIndex maps a flat stage-output index to its pool-window index,
// or -1 when the position falls in the edge rows/columns the
// floor-division pool drops.
func (s *crossSweep) pooledIndex(j int) int {
	k := j / s.planeLen
	r := j - k*s.planeLen
	py := r / s.outW / s.pool
	px := r % s.outW / s.pool
	if py >= s.pooledH || px >= s.pooledW {
		return -1
	}
	return (k*s.pooledH+py)*s.pooledW + px
}

// sweepChunk is one chunk's fold state: per-candidate correct counts
// plus engine accounting, combined in chunk order by run.
type sweepChunk struct {
	counts []int64
	stats  SweepStats
}

// run scores every candidate in ts (ascending) against every sample
// and returns the per-candidate correct counts. values[i] is sample
// i's flat stage-output buffer. Counter totals and counts are
// bit-identical for every worker count: integer sums fold per chunk
// and chunks are fixed.
func (s *crossSweep) run(values [][]float64, labels []int, ts []float64, workers int, rec *obs.Recorder, stats *SweepStats) []int {
	if len(ts) == 0 {
		return nil
	}
	res := par.MapChunksRec(rec, workers, len(values), par.DefaultChunkSize, func(c par.Chunk) sweepChunk {
		a := s.getArena()
		defer s.arenas.Put(a)
		out := sweepChunk{counts: make([]int64, len(ts))}
		for i := c.Lo; i < c.Hi; i++ {
			s.sweepSample(a, values[i], labels[i], ts, &out)
		}
		return out
	})
	counts := make([]int, len(ts))
	var agg SweepStats
	for _, r := range res {
		for c, v := range r.counts {
			counts[c] += int(v)
		}
		agg.add(r.stats)
	}
	stats.add(agg)
	rec.Counter(MetricRemainderSkipped).Add(agg.RemainderSkipped)
	rec.Counter(MetricRemainderEvals).Add(agg.RemainderEvals)
	rec.Counter(MetricFCDeltaUpdates).Add(agg.FCDeltaUpdates)
	return counts
}

// sweepSample scores one sample against the full ascending candidate
// list using its crossing schedule.
func (s *crossSweep) sweepSample(a *sweepArena, data []float64, label int, ts []float64, out *sweepChunk) {
	// Seed state at the first candidate — pool-window live counts and
	// the pooled remainder input — and collect the crossing window: only
	// values in (ts[0], ts[last]] ever cross. Values at or below ts[0]
	// are off from the start; values above ts[last] stay on throughout.
	t0, hi := ts[0], ts[len(ts)-1]
	remData := a.rem.Data()
	clear(remData)
	clear(a.cnt)
	sched := a.sched[:0]
	for j, v := range data {
		if !(v > t0) {
			continue
		}
		if v <= hi {
			sched = append(sched, crossing{v, int32(j)})
		}
		ri := j
		if s.pool > 1 {
			if ri = s.pooledIndex(j); ri < 0 {
				continue
			}
			a.cnt[ri]++
		}
		remData[ri] = 1
	}
	// Total order (value, index): equal values cross in deterministic
	// index order, keeping last-stage delta updates order-stable.
	slices.SortFunc(sched, func(x, y crossing) int {
		return cmp.Or(cmp.Compare(x.v, y.v), cmp.Compare(x.j, y.j))
	})

	var pred int
	if s.last {
		tensor.MatVecInto(a.y, s.fcW, remData)
		for o, b := range s.fcB {
			a.y[o] += b
		}
		pred = argmaxFirst(a.y)
	} else {
		pred = a.remEval(a.rem)
	}
	out.stats.RemainderEvals++
	if pred == label {
		out.counts[0]++
	}

	// p points at the first schedule entry still above the current
	// candidate; entries before it have crossed (turned off).
	p := 0
	for c := 1; c < len(ts); c++ {
		t := ts[c]
		remChanged := false
		for p < len(sched) && sched[p].v <= t {
			j := int(sched[p].j)
			p++
			ri := j
			if s.pool > 1 {
				if ri = s.pooledIndex(j); ri < 0 {
					continue // edge position dropped by the pool
				}
				if a.cnt[ri]--; a.cnt[ri] != 0 {
					continue // window still populated: OR unchanged
				}
			}
			remData[ri] = 0
			remChanged = true
			if s.last {
				w := s.fcW.Data()
				in := s.fcW.Dim(1)
				for o := range a.y {
					a.y[o] -= w[o*in+ri]
				}
				out.stats.FCDeltaUpdates++
			}
		}
		switch {
		case !remChanged:
			out.stats.RemainderSkipped++
		case s.last:
			pred = argmaxFirst(a.y)
		default:
			pred = a.remEval(a.rem)
			out.stats.RemainderEvals++
		}
		if pred == label {
			out.counts[c]++
		}
	}
	out.stats.Evaluations += int64(len(ts))
}

// argmaxFirst is tensor.ArgMax on a plain slice: index of the largest
// element, first on ties.
func argmaxFirst(y []float64) int {
	best, bi := y[0], 0
	for i, v := range y {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// newIncrementalSweeper wires a crossSweep for Algorithm 1's stage-l
// candidate scoring: the remainder evaluator is the float tail of the
// network (bit-identical to floatRemainder), or the FC delta path when
// l is the last conv stage.
func newIncrementalSweeper(q *QuantizedNet, l int, convOut []*tensor.Tensor, labels []int, cfg SearchConfig, stats *SweepStats) layerSweeper {
	s, values := newStageSweep(q, l, convOut, newFloatRemainderEval)
	return func(ts []float64) []int {
		return s.run(values, labels, ts, cfg.Workers, cfg.Obs, stats)
	}
}

// newStageSweep wires a crossSweep for conv stage l over per-sample
// stage outputs. newRem builds the remainder evaluator from stage l+1
// on for the sweep's remainder shape; the last stage takes the FC
// delta path instead.
func newStageSweep(q *QuantizedNet, l int, outs []*tensor.Tensor, newRem func(*QuantizedNet, int, []int) func() func(*tensor.Tensor) int) (*crossSweep, [][]float64) {
	outShape, pool := outs[0].Shape(), q.Convs[l].PoolSize
	var rem func() func(*tensor.Tensor) int
	if l < len(q.Convs)-1 {
		remShape := outShape
		if pool > 1 {
			remShape = []int{outShape[0], outShape[1] / pool, outShape[2] / pool}
		}
		rem = newRem(q, l+1, remShape)
	}
	values := make([][]float64, len(outs))
	for i, t := range outs {
		values[i] = t.Data()
	}
	return newCrossSweep(outShape, pool, q.FC.W, q.FC.B, rem), values
}

// remStageGeom is the static geometry of one float conv stage.
type remStageGeom struct {
	kh, kw, stride, pool int
	fan, positions       int
	wmat                 *tensor.Tensor // [filters, fan] view of the stage weights (shared, read-only)
	outShape             []int          // [filters, outH, outW]
	pooledShape          []int          // nil when pool ≤ 1
}

// remainderGeometry chains activation shapes from inShape through conv
// stages from..end, precomputing the per-stage geometry of the float
// remainder (and of Algorithm 1's step-1 convolution).
func remainderGeometry(q *QuantizedNet, from int, inShape []int) []remStageGeom {
	var gs []remStageGeom
	shape := inShape
	for l := from; l < len(q.Convs); l++ {
		c := &q.Convs[l]
		kh, kw := c.W.Dim(2), c.W.Dim(3)
		outH := (shape[1]-kh)/c.Stride + 1
		outW := (shape[2]-kw)/c.Stride + 1
		g := remStageGeom{
			kh: kh, kw: kw, stride: c.Stride, pool: c.PoolSize,
			fan: c.FanIn(), positions: outH * outW,
			wmat:     c.W.Reshape(c.Filters(), c.FanIn()),
			outShape: []int{c.Filters(), outH, outW},
		}
		shape = g.outShape
		if c.PoolSize > 1 {
			g.pooledShape = []int{c.Filters(), outH / c.PoolSize, outW / c.PoolSize}
			shape = g.pooledShape
		}
		gs = append(gs, g)
	}
	return gs
}

// remStageBufs is one arena's scratch for one remainder conv stage.
type remStageBufs struct {
	cols, colsT *tensor.Tensor
	out2        *tensor.Tensor // [filters, positions] product buffer
	out         *tensor.Tensor // the same data viewed [filters, outH, outW]
	pooled      *tensor.Tensor // nil when pool ≤ 1
}

func newRemStageBufs(gs []remStageGeom) []remStageBufs {
	bufs := make([]remStageBufs, len(gs))
	for i, g := range gs {
		b := remStageBufs{
			cols:  tensor.New(g.positions, g.fan),
			colsT: tensor.New(g.fan, g.positions),
			out2:  tensor.New(g.outShape[0], g.positions),
		}
		b.out = b.out2.Reshape(g.outShape...)
		if g.pooledShape != nil {
			b.pooled = tensor.New(g.pooledShape...)
		}
		bufs[i] = b
	}
	return bufs
}

// conv computes the stage's float convolution of x (no ReLU, no pool)
// into b.out with floatConv's kernels — Im2Col, Transpose2D, ikj
// MatMul — so the output is bit-identical to floatConv's.
func (g *remStageGeom) conv(b *remStageBufs, x *tensor.Tensor) {
	tensor.Im2ColInto(b.cols, x, g.kh, g.kw, g.stride)
	tensor.Transpose2DInto(b.colsT, b.cols)
	tensor.MatMulInto(b.out2, g.wmat, b.colsT)
}

// newFloatRemainderEval returns an arena factory for the float
// remainder of the greedy search: conv, ReLU, max pool per stage, then
// the FC classifier. Kernels and accumulation order replicate
// floatRemainder exactly (Im2Col/Transpose2D/ikj MatMul, full-fold
// MatVec), so predictions are bit-identical; the Into variants reuse
// the arena's buffers instead of allocating.
func newFloatRemainderEval(q *QuantizedNet, from int, inShape []int) func() func(*tensor.Tensor) int {
	gs := remainderGeometry(q, from, inShape)
	fcW, fcB := q.FC.W, q.FC.B
	return func() func(*tensor.Tensor) int {
		bufs := newRemStageBufs(gs)
		y := make([]float64, len(fcB))
		return func(rem *tensor.Tensor) int {
			x := rem
			for i, g := range gs {
				b := &bufs[i]
				g.conv(b, x)
				d := b.out.Data()
				for k, v := range d {
					if v < 0 {
						d[k] = 0
					}
				}
				if g.pool > 1 {
					maxPoolInto(b.pooled, b.out, g.pool)
					x = b.pooled
				} else {
					x = b.out
				}
			}
			tensor.MatVecInto(y, fcW, x.Data())
			for o, b := range fcB {
				y[o] += b
			}
			return argmaxFirst(y)
		}
	}
}

// newBinaryRemainderEval returns an arena factory for the refinement's
// remainder: the *binarized* pipeline from conv stage `from` on, run by
// classifyFrom with its own stage arena — thresholds read at call time,
// since refinement mutates deeper thresholds between sweeps — and left
// uncounted on the hardware counters. Predictions are bit-identical to
// QuantizedNet.Predict's tail.
func newBinaryRemainderEval(q *QuantizedNet, from int, inShape []int) func() func(*tensor.Tensor) int {
	return func() func(*tensor.Tensor) int {
		a := &stageArena{}
		return func(rem *tensor.Tensor) int {
			return q.classifyFrom(a, from, rem.Data(), inShape[1], inShape[2], nil)
		}
	}
}
