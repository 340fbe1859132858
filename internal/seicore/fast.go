package seicore

// The bit-packed inference fast path. After 1-bit quantization every
// inter-layer activation is binary, so the crossbar MVM degenerates to
// summing the effective-weight rows whose input bit is set and max
// pooling to an OR of bits (the paper's core observation; Section 3).
// This file carries those activations as uint64-word-packed bit
// vectors end to end — packed activation maps, bit-blitted im2col
// windows, OR-fused pooling — and reuses one per-goroutine scratch
// arena for every buffer the forward pass needs, making steady-state
// Predict allocation-free.
//
// Contract (pinned by determinism_test.go and fast_test.go): the fast
// path is bit-identical to the float path in predictions AND in
// hardware-counter totals. Every float accumulation visits rows in the
// exact order of the float path's skip-zero loops, every counter is
// recorded at the same logical event, and the fused OR pool writes the
// same output bits as quant.orPoolInto (OR is order-independent on bits).
// The path applies only to ideal-analog designs — no read noise, no IR
// drop, no I-V nonlinearity (the Table 4/5 default device) — because
// those effects perturb sums in ways the packed kernels do not model;
// noisy/nonlinear designs keep the float path, selected at the single
// dispatch point in SEIDesign.Predict.

import (
	"sei/internal/bitvec"
	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/tensor"
)

// stageGeom is the pre-resolved geometry of one conv stage: input map
// dims, output grid, pooled output grid.
type stageGeom struct {
	kh, kw, stride, pool int
	inC, inH, inW        int
	outH, outW           int // pre-pool output grid
	pooledH, pooledW     int // post-pool dims (== outH/outW when pool ≤ 1)
	fan                  int // receptive-field size inC·kh·kw
	filters              int
}

// fastGeometry chains the quantized net's stage shapes from InShape,
// mirroring the shape arithmetic of quant.convStage/orPoolInto (including
// the floor division that drops pool-uncovered edge rows).
func fastGeometry(q *quant.QuantizedNet) []stageGeom {
	inC, inH, inW := q.InShape[0], q.InShape[1], q.InShape[2]
	gs := make([]stageGeom, len(q.Convs))
	for l := range q.Convs {
		c := &q.Convs[l]
		g := stageGeom{
			kh: c.W.Dim(2), kw: c.W.Dim(3), stride: c.Stride, pool: c.PoolSize,
			inC: inC, inH: inH, inW: inW,
			fan: c.FanIn(), filters: c.Filters(),
		}
		g.outH = (inH-g.kh)/g.stride + 1
		g.outW = (inW-g.kw)/g.stride + 1
		g.pooledH, g.pooledW = g.outH, g.outW
		if g.pool > 1 {
			g.pooledH, g.pooledW = g.outH/g.pool, g.outW/g.pool
		}
		gs[l] = g
		inC, inH, inW = g.filters, g.pooledH, g.pooledW
	}
	return gs
}

// seiScratch is one goroutine's arena for the fast path: every buffer
// a full forward pass touches, sized once for the design's largest
// stage. Predict borrows a scratch from the design's pool, so
// steady-state inference performs zero heap allocations per image.
type seiScratch struct {
	geom      []stageGeom
	cur, next *bitvec.Vec // packed activation maps, ping-pong
	win       *bitvec.Vec // packed receptive-field window
	field     []float64   // stage-0 float im2col window (DAC-driven)
	strip     []float64   // stage-0 output-row column sums (fastnoisy.go)
	col       []float64   // per-block column sums
	fired     []int       // per-column fired-block counts
	scores    []float64   // FC classifier scores
	gauss     []float64   // noise-draw block (fastnoisy.go)
	varsum    []float64   // aggregated-noise per-column variances
}

// newSEIScratch sizes an arena for d.
func newSEIScratch(d *SEIDesign) *seiScratch {
	s := &seiScratch{geom: fastGeometry(d.Q)}
	maxMap, maxFan, maxM := 0, 0, 0
	for l, g := range s.geom {
		if n := g.filters * g.pooledH * g.pooledW; n > maxMap {
			maxMap = n
		}
		if l > 0 && g.fan > maxFan {
			maxFan = g.fan
		}
		if g.filters > maxM {
			maxM = g.filters
		}
	}
	if d.FC.M > maxM {
		maxM = d.FC.M
	}
	s.cur = bitvec.New(maxMap)
	s.next = bitvec.New(maxMap)
	s.win = bitvec.New(maxFan)
	s.field = make([]float64, s.geom[0].fan)
	s.strip = make([]float64, s.geom[0].outW*s.geom[0].filters)
	s.col = make([]float64, maxM)
	s.fired = make([]int, maxM)
	s.scores = make([]float64, d.FC.M)
	s.gauss = make([]float64, maxM)
	s.varsum = make([]float64, maxM)
	return s
}

// idealAnalog reports whether a device model's read-out is exact: no
// read noise, no IR drop, no I-V nonlinearity. Programming-time
// effects (variation, stuck faults, quantized levels) are already
// baked into the effective weights and do not disqualify the fast
// path.
func idealAnalog(m rram.DeviceModel) bool {
	return m.Readout().Ideal()
}

// fastEligible reports whether every stage of the design reads out
// exactly, which is what makes the packed kernels bit-identical to the
// float path.
func (d *SEIDesign) fastEligible() bool {
	if !idealAnalog(d.Input.model) {
		return false
	}
	for _, l := range d.Convs {
		if !idealAnalog(l.model) {
			return false
		}
	}
	return idealAnalog(d.FC.model)
}

// gatherFloatWindow copies one receptive-field window out of the float
// input map into dst, in exactly tensor.Im2Col's element order
// (channel-major, then kernel row, then kernel column).
func gatherFloatWindow(data []float64, g *stageGeom, oy, ox int, dst []float64) {
	di := 0
	for ch := 0; ch < g.inC; ch++ {
		base := ch * g.inH * g.inW
		for ky := 0; ky < g.kh; ky++ {
			src := base + (oy*g.stride+ky)*g.inW + ox*g.stride
			copy(dst[di:di+g.kw], data[src:src+g.kw])
			di += g.kw
		}
	}
}

// gatherBitWindow is gatherFloatWindow on a packed activation map:
// each kernel row is a kw-bit blit, so a window costs O(fan/64 + rows)
// word operations instead of fan float copies.
func gatherBitWindow(in *bitvec.Vec, g *stageGeom, oy, ox int, dst *bitvec.Vec) {
	di := 0
	for ch := 0; ch < g.inC; ch++ {
		base := ch * g.inH * g.inW
		for ky := 0; ky < g.kh; ky++ {
			src := base + (oy*g.stride+ky)*g.inW + ox*g.stride
			bitvec.CopyRange(dst, di, in, src, g.kw)
			di += g.kw
		}
	}
}

// poolSet writes one fired output bit into the (pool-fused) output
// map: with pooling the bit lands OR-wise in its pool window's slot,
// and positions in edge rows/columns the floor-division pool grid
// never covers are dropped — exactly what quant.orPoolInto computes.
func poolSet(out *bitvec.Vec, g *stageGeom, k, oy, ox int) {
	py, px := oy, ox
	if g.pool > 1 {
		py /= g.pool
		px /= g.pool
		if py >= g.pooledH || px >= g.pooledW {
			return
		}
	}
	out.Set((k*g.pooledH+py)*g.pooledW + px)
}

// predictFast classifies one image on the bit-packed path. The caller
// owns s for the duration of the call.
func (d *SEIDesign) predictFast(img *tensor.Tensor, s *seiScratch) int {
	if d.bounded {
		return d.predictFastBounded(img, s)
	}
	q := d.Q

	// Stage 0 keeps the DAC+ADC organization (Section 3.2): float
	// image windows through the merged input layer, binarized by the
	// stage threshold, pooled into the first packed map.
	g := &s.geom[0]
	out := s.cur
	out.Reset(g.filters * g.pooledH * g.pooledW)
	thr := q.Thresholds[0]
	col := s.col[:g.filters]
	data := img.Data()
	for oy := 0; oy < g.outH; oy++ {
		for ox := 0; ox < g.outW; ox++ {
			gatherFloatWindow(data, g, oy, ox, s.field)
			d.Input.evalIdealInto(s.field, col)
			for k, v := range col {
				if v > thr {
					poolSet(out, g, k, oy, ox)
				}
			}
		}
	}
	if g.pool > 1 {
		q.CountORPool(int64(g.filters * g.pooledH * g.pooledW))
	}

	// Deeper conv stages are SEI crossbars: packed windows in, SA
	// threshold counts out, OR-fused pooling.
	for l := 1; l < len(q.Convs); l++ {
		layer := d.Convs[l-1]
		g := &s.geom[l]
		in := s.cur
		out := s.next
		out.Reset(g.filters * g.pooledH * g.pooledW)
		s.win.Reset(g.fan)
		fired := s.fired[:layer.M]
		col := s.col[:layer.M]
		for oy := 0; oy < g.outH; oy++ {
			for ox := 0; ox < g.outW; ox++ {
				gatherBitWindow(in, g, oy, ox, s.win)
				layer.evalFastCounts(s.win, fired, col)
				for k, f := range fired {
					if f >= layer.DigitalThreshold {
						poolSet(out, g, k, oy, ox)
					}
				}
			}
		}
		if g.pool > 1 {
			q.CountORPool(int64(g.filters * g.pooledH * g.pooledW))
		}
		s.cur, s.next = out, in
	}

	// FC stage: the flattened final map is already the packed input.
	d.FC.evalFastInto(s.cur, s.scores, s.col[:d.FC.M])
	best, bi := s.scores[0], 0
	for i, v := range s.scores {
		if v > best { // strict >: first maximum wins, as tensor.ArgMax
			best, bi = v, i
		}
	}
	return bi
}
