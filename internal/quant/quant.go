// Package quant implements Section 3 of the paper: the software
// quantization that turns every intermediate activation of a trained
// CNN into a single bit, eliminating DACs.
//
// It extracts the conv/pool/FC structure from a trained nn.Network,
// runs Algorithm 1 (per-layer weight re-scaling plus greedy
// brute-force threshold search on the training set), and provides the
// binarized inference path in which ReLU is subsumed by thresholding
// and max-pooling degenerates into an OR of bits. The binarized
// forward pass is parameterized over a StageEval so that the digital
// reference implementation and the RRAM/SEI hardware simulators share
// one data path.
package quant

import (
	"fmt"
	"sync"

	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/tensor"
)

// ConvSpec is one convolution stage of the quantized network, with the
// re-scaled weights. PoolSize is the OR-pool window applied to its
// binarized output (0 means no pooling).
type ConvSpec struct {
	W        *tensor.Tensor // [Filters, InChannels, KH, KW]
	Stride   int
	PoolSize int
}

// Filters returns the number of output channels.
func (c *ConvSpec) Filters() int { return c.W.Dim(0) }

// FanIn returns the receptive-field size InChannels·KH·KW — the RRAM
// row count of the layer's weight matrix.
func (c *ConvSpec) FanIn() int { return c.W.Dim(1) * c.W.Dim(2) * c.W.Dim(3) }

// FCSpec is the final fully-connected stage (never binarized; its
// argmax is the classification).
type FCSpec struct {
	W *tensor.Tensor // [Out, In]
	B []float64
}

// QuantizedNet is a CNN with 1-bit intermediate data: a chain of conv
// stages, each followed by threshold binarization and an optional OR
// pool, ending in a fully-connected classifier.
type QuantizedNet struct {
	Name       string
	Convs      []ConvSpec
	FC         FCSpec
	Thresholds []float64 // one per conv stage
	InShape    []int     // input image shape, e.g. [1,28,28]

	// hw receives hardware-event counts (OR-pool reductions) when the
	// net is instrumented. Unexported so gob serialization skips it:
	// nets coming back from the cache load uninstrumented and must be
	// re-instrumented by the caller. Struct copies (CloneForEval of the
	// simulators) share the pointer, which is safe — the counters are
	// atomic.
	hw *obs.HW
}

// Instrument routes the net's hardware-event counts to rec; nil
// detaches. The binarized data path is shared by the digital reference
// and the crossbar simulators, so OR-pool reductions are counted here
// once for all of them.
func (q *QuantizedNet) Instrument(rec *obs.Recorder) { q.hw = rec.HW() }

// CountORPool records n OR-pool window reductions on the net's
// hardware counters (a no-op when uninstrumented). External binarized
// data paths that fuse pooling into the stage write-out — seicore's
// bit-packed fast path — use it to keep counter totals bit-identical
// to convStage's own accounting.
func (q *QuantizedNet) CountORPool(n int64) { q.hw.ORPool(n) }

// Extract decomposes a trained nn.Network of the paper's shape
// (conv [relu] [pool] ... flatten dense) into quantizable stages. The
// weights are deep-copied. Thresholds are zero and must be set by
// SearchThresholds before the binarized path is meaningful.
func Extract(net *nn.Network, inShape []int) (*QuantizedNet, error) {
	q := &QuantizedNet{Name: net.Name, InShape: append([]int(nil), inShape...)}
	i := 0
	for i < len(net.Layers) {
		switch l := net.Layers[i].(type) {
		case *nn.Conv2D:
			if l.Bias != nil {
				return nil, fmt.Errorf("quant: conv layer %d has a bias; the paper's conv kernels are bias-free", i)
			}
			spec := ConvSpec{W: l.Weight.Value.Clone(), Stride: l.Stride}
			i++
			// Optional ReLU (subsumed by the threshold, which is ≥ 0).
			if i < len(net.Layers) {
				if _, ok := net.Layers[i].(*nn.ReLU); ok {
					i++
				}
			}
			// Optional pooling.
			if i < len(net.Layers) {
				if p, ok := net.Layers[i].(*nn.MaxPool2D); ok {
					spec.PoolSize = p.Size
					i++
				}
			}
			q.Convs = append(q.Convs, spec)
		case *nn.Flatten:
			i++
		case *nn.Dense:
			if i != len(net.Layers)-1 {
				return nil, fmt.Errorf("quant: dense layer %d is not final; hidden FC layers are not supported", i)
			}
			q.FC = FCSpec{W: l.Weight.Value.Clone(), B: append([]float64(nil), l.Bias.Value.Data()...)}
			i++
		default:
			return nil, fmt.Errorf("quant: unsupported layer %T at %d", net.Layers[i], i)
		}
	}
	if len(q.Convs) == 0 || q.FC.W == nil {
		return nil, fmt.Errorf("quant: network %q lacks conv or FC stages", net.Name)
	}
	q.Thresholds = make([]float64, len(q.Convs))
	return q, nil
}

// ConvMatrix returns conv stage l's kernels as the RRAM-oriented
// weight matrix [FanIn, Filters]: column k holds kernel k, exactly the
// layout of the paper's "25×12"-style weight matrices (Table 2).
func (q *QuantizedNet) ConvMatrix(l int) *tensor.Tensor {
	c := &q.Convs[l]
	wmat := c.W.Reshape(c.Filters(), c.FanIn())
	return tensor.Transpose2D(wmat)
}

// FCMatrix returns the FC weights as [In, Out] — the RRAM orientation
// (e.g. 1024×10 for Network 1).
func (q *QuantizedNet) FCMatrix() *tensor.Tensor {
	return tensor.Transpose2D(q.FC.W)
}

// StageEval evaluates the two kinds of mapped matrix operations. The
// digital reference, the ADC-merged crossbar design and the SEI design
// all implement it; everything else about the binarized data path
// (im2col walking, OR pooling, layer sequencing) is shared.
type StageEval interface {
	// EvalConv returns the binarized outputs (one bit per filter) of
	// conv stage l for one receptive field. For l == 0 the input is the
	// real-valued (8-bit, DAC-driven) image window; for l > 0 it is 0/1.
	EvalConv(l int, in []float64) []bool
	// EvalFC returns the classifier scores for the flattened 0/1 input
	// of the final stage.
	EvalFC(in []float64) []float64
}

// digitalEval is the exact software implementation of the binarized
// network: Equ. (4) of the paper with float arithmetic. Whole stages
// run on the gather kernel (convSums), which sums the same terms in the
// same order as EvalConv.
type digitalEval struct{ q *QuantizedNet }

func (d digitalEval) EvalConv(l int, in []float64) []bool {
	c := &d.q.Convs[l]
	t := d.q.Thresholds[l]
	f, fan := c.Filters(), c.FanIn()
	w := c.W.Data()
	out := make([]bool, f)
	for k := 0; k < f; k++ {
		row := w[k*fan : (k+1)*fan]
		s := 0.0
		for j, x := range in {
			if x != 0 {
				s += row[j] * x
			}
		}
		out[k] = s > t
	}
	return out
}

func (d digitalEval) EvalFC(in []float64) []float64 {
	y := tensor.MatVec(d.q.FC.W, in)
	for i := range y {
		y[i] += d.q.FC.B[i]
	}
	return y
}

// Digital returns the exact software evaluator for the quantized
// network.
func (q *QuantizedNet) Digital() StageEval { return digitalEval{q} }

// ForwardWith runs the full binarized pipeline on one image using the
// given evaluator and returns the classifier scores.
func (q *QuantizedNet) ForwardWith(eval StageEval, img *tensor.Tensor) []float64 {
	cur := img
	for l := range q.Convs {
		cur = q.convStage(eval, l, cur)
	}
	return eval.EvalFC(cur.Data())
}

// convStage applies conv stage l (matrix eval + binarize + OR pool) to
// the current activation map and returns the next 0/1 map. The digital
// evaluator runs the gather kernel (digitalStage); any other evaluator
// — the crossbar simulators — is driven one receptive field at a time.
func (q *QuantizedNet) convStage(eval StageEval, l int, cur *tensor.Tensor) *tensor.Tensor {
	c := &q.Convs[l]
	f, h, w := c.Filters(), cur.Dim(1), cur.Dim(2)
	outH, outW, ph, pw := c.outDims(h, w)
	out := tensor.New(f, ph, pw)
	if _, ok := eval.(digitalEval); ok {
		a := arenas.Get().(*stageArena)
		q.digitalStage(l, out.Data(), cur.Data(), h, w, a, q.hw)
		arenas.Put(a)
		return out
	}
	cols := tensor.Im2Col(cur, c.W.Dim(2), c.W.Dim(3), c.Stride)
	positions, fan := cols.Dim(0), cols.Dim(1)
	bits := out
	if c.PoolSize > 1 {
		bits = tensor.New(f, outH, outW)
	}
	bd := bits.Data()
	for p := 0; p < positions; p++ {
		for k, b := range eval.EvalConv(l, cols.Data()[p*fan:(p+1)*fan]) {
			if b {
				bd[k*positions+p] = 1
			}
		}
	}
	if c.PoolSize > 1 {
		orPoolInto(out.Data(), bd, f, outH, outW, c.PoolSize)
		q.hw.ORPool(int64(out.Len()))
	}
	return out
}

// outDims returns the stage's conv-output extents on an h×w input map
// and its OR-pooled extents (the floor-division pool crops the edges).
func (c *ConvSpec) outDims(h, w int) (outH, outW, ph, pw int) {
	outH = (h-c.W.Dim(2))/c.Stride + 1
	outW = (w-c.W.Dim(3))/c.Stride + 1
	if c.PoolSize > 1 {
		return outH, outW, outH / c.PoolSize, outW / c.PoolSize
	}
	return outH, outW, outH, outW
}

// stageArena is one goroutine's scratch for the digital kernel: the
// gathered receptive field, pre-pool sums, ping-pong activation maps
// and classifier scores, grown to the largest geometry seen and pooled
// package-wide, so steady-state digital forward passes allocate nothing.
type stageArena struct {
	idx       []int32
	val, sums []float64
	maps      [2][]float64
	y         []float64
}

var arenas = sync.Pool{New: func() any { return new(stageArena) }}

// grow returns (*buf)[:n] with unspecified contents, reallocating when short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// convSums writes conv stage c's analog sums on the [ch,h,w] map x into
// dst ([filters, outH·outW]). Per output position it reads the
// receptive field straight from x in Im2Col's channel-major order,
// collects the nonzero (index, value) pairs once, and runs the
// skip-zero dot of every filter over them: the same terms in the same
// order as digitalEval.EvalConv, so the sums are IEEE-identical.
func (a *stageArena) convSums(dst []float64, c *ConvSpec, x []float64, h, w int) {
	f, ch, kh, kw, s := c.W.Dim(0), c.W.Dim(1), c.W.Dim(2), c.W.Dim(3), c.Stride
	if len(x) != ch*h*w {
		panic(fmt.Sprintf("quant: stage input has %d values, want %d×%d×%d", len(x), ch, h, w))
	}
	fan, wd := ch*kh*kw, c.W.Data()
	outH, outW, _, _ := c.outDims(h, w)
	positions := outH * outW
	idx, val := grow(&a.idx, fan), grow(&a.val, fan)
	for p := 0; p < positions; p++ {
		oy, ox := p/outW, p%outW
		n, j := 0, int32(0)
		for c0 := 0; c0 < ch; c0++ {
			for ky := 0; ky < kh; ky++ {
				src := (c0*h+oy*s+ky)*w + ox*s
				for _, v := range x[src : src+kw] {
					if v != 0 {
						idx[n], val[n] = j, v
						n++
					}
					j++
				}
			}
		}
		for k := 0; k < f; k++ {
			row := wd[k*fan : (k+1)*fan]
			sum := 0.0
			for i, v := range val[:n] {
				sum += row[idx[i]] * v
			}
			dst[k*positions+p] = sum
		}
	}
}

// digitalStage runs binarized conv stage l on the [ch,h,w] map x into
// dst ([filters, ph, pw] from outDims): the gather kernel's sums, then
// binarizePool at the stage's current threshold.
func (q *QuantizedNet) digitalStage(l int, dst, x []float64, h, w int, a *stageArena, hw *obs.HW) {
	c := &q.Convs[l]
	outH, outW, _, _ := c.outDims(h, w)
	bits := dst
	if c.PoolSize > 1 {
		bits = grow(&a.sums, c.Filters()*outH*outW)
	}
	a.convSums(bits, c, x, h, w)
	q.binarizePool(l, dst, bits, outH, outW, q.Thresholds[l], hw)
}

// binarizePool thresholds stage l's [filters, outH, outW] sums in place
// at t and OR-pools them into dst (sums itself when unpooled), counting
// the reductions on hw (nil = uncounted).
func (q *QuantizedNet) binarizePool(l int, dst, sums []float64, outH, outW int, t float64, hw *obs.HW) {
	for i, s := range sums {
		if s > t {
			sums[i] = 1
		} else {
			sums[i] = 0
		}
	}
	if c := &q.Convs[l]; c.PoolSize > 1 {
		orPoolInto(dst, sums, c.Filters(), outH, outW, c.PoolSize)
		hw.ORPool(int64(len(dst)))
	}
}

// classifyFrom runs the digital pipeline from conv stage `from` on the
// [ch,h,w] map x through the FC classifier and returns the class.
func (q *QuantizedNet) classifyFrom(a *stageArena, from int, x []float64, h, w int, hw *obs.HW) int {
	for l := from; l < len(q.Convs); l++ {
		c := &q.Convs[l]
		_, _, ph, pw := c.outDims(h, w)
		dst := grow(&a.maps[l%2], c.Filters()*ph*pw)
		q.digitalStage(l, dst, x, h, w, a, hw)
		x, h, w = dst, ph, pw
	}
	y := grow(&a.y, len(q.FC.B))
	tensor.MatVecInto(y, q.FC.W, x)
	for o, b := range q.FC.B {
		y[o] += b
	}
	return argmaxFirst(y)
}

// orPoolInto writes the OR pool of a 0/1 map ([ch,h,w]) into dst
// ([ch, h/size, w/size]): each size×size window reduces to the OR of
// its bits — the degenerate form of max pooling on 1-bit data
// (Section 3.1).
func orPoolInto(dst, bits []float64, ch, h, w, size int) {
	oh, ow := h/size, w/size
	for c := 0; c < ch; c++ {
		base := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				v := 0.0
				for ky := 0; ky < size && v == 0; ky++ {
					row := base + (oy*size+ky)*w + ox*size
					for _, b := range bits[row : row+size] {
						if b != 0 {
							v = 1
							break
						}
					}
				}
				dst[(c*oh+oy)*ow+ox] = v
			}
		}
	}
}

// Predict classifies one image with the exact digital evaluator.
func (q *QuantizedNet) Predict(img *tensor.Tensor) int {
	a := arenas.Get().(*stageArena)
	defer arenas.Put(a)
	return q.classifyFrom(a, 0, img.Data(), img.Dim(1), img.Dim(2), q.hw)
}

// CloneForEval implements nn.ParallelClassifier. The digital evaluator
// is stateless and Predict only reads the network, so the receiver
// itself is safe to share across goroutines; the seed is ignored.
func (q *QuantizedNet) CloneForEval(seed int64) nn.Classifier { return q }

// PredictWith classifies one image with an arbitrary evaluator
// (e.g. a hardware simulation).
func (q *QuantizedNet) PredictWith(eval StageEval, img *tensor.Tensor) int {
	scores := q.ForwardWith(eval, img)
	return tensor.FromSlice(scores, len(scores)).ArgMax()
}

// BinaryActivations runs the digital pipeline and returns the 0/1
// activation map entering each conv stage l ≥ 1 and the FC stage —
// the data the hardware simulators consume as selection signals.
func (q *QuantizedNet) BinaryActivations(img *tensor.Tensor) []*tensor.Tensor {
	var acts []*tensor.Tensor
	cur := img
	eval := q.Digital()
	for l := range q.Convs {
		cur = q.convStage(eval, l, cur)
		acts = append(acts, cur)
	}
	return acts
}

// StageInput returns the 0/1 map entering conv stage l (the FC input at
// l = len(Convs); img at l = 0) without running the stages after it.
func (q *QuantizedNet) StageInput(img *tensor.Tensor, l int) *tensor.Tensor {
	for s := 0; s < l; s++ {
		img = q.convStage(q.Digital(), s, img)
	}
	return img
}
