package nn

import (
	"fmt"
	"math"

	"sei/internal/tensor"
)

// Network is an ordered stack of layers ending in a logits vector.
type Network struct {
	Name   string
	Layers []Layer
}

// Forward runs one sample through every layer and returns the logits.
func (n *Network) Forward(in *tensor.Tensor) *tensor.Tensor {
	x := in
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Tap is one recorded intermediate activation: the output of layer
// LayerIndex (0-based, counted over n.Layers) for the sample.
type Tap struct {
	LayerIndex int
	LayerName  string
	Value      *tensor.Tensor
}

// ForwardTaps runs a forward pass recording the output of every layer.
// The quantizer and the Table-1 distribution analysis consume these.
func (n *Network) ForwardTaps(in *tensor.Tensor) (*tensor.Tensor, []Tap) {
	x := in
	taps := make([]Tap, 0, len(n.Layers))
	for i, l := range n.Layers {
		x = l.Forward(x)
		taps = append(taps, Tap{LayerIndex: i, LayerName: l.Name(), Value: x})
	}
	return x, taps
}

// Predict returns the argmax class for one sample.
func (n *Network) Predict(in *tensor.Tensor) int {
	return n.Forward(in).ArgMax()
}

// EvalClone returns a network sharing this network's parameters whose
// layers own fresh Forward scratch, for goroutine-exclusive forward
// evaluation (see Layer.EvalClone).
func (n *Network) EvalClone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.EvalClone()
	}
	return &Network{Name: n.Name, Layers: layers}
}

// CloneForEval implements ParallelClassifier. The float network is
// noise-free, so the seed is ignored.
func (n *Network) CloneForEval(seed int64) Classifier { return n.EvalClone() }

// Backward propagates dLoss/dLogits through the stack, accumulating
// parameter gradients. It must follow a Forward call on the same
// sample.
func (n *Network) Backward(grad *tensor.Tensor) {
	g := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
}

// Params returns every trainable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total trainable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// CheckShapes validates that the layer stack composes for the given
// input shape and returns the output shape.
func (n *Network) CheckShapes(in []int) ([]int, error) {
	shape := append([]int(nil), in...)
	for i, l := range n.Layers {
		func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("nn: layer %d (%s): %v", i, l.Name(), r)
				}
			}()
			shape = l.OutShape(shape)
			return nil
		}()
		if shape == nil {
			return nil, fmt.Errorf("nn: layer %d (%s) rejected its input shape", i, l.Name())
		}
	}
	return shape, nil
}

// Ops returns the multiply-accumulate-based operation count for one
// forward pass with the given input shape, counting 2 ops per MAC
// (the GOPs convention of the paper's Table 2).
func (n *Network) Ops(in []int) int64 {
	shape := append([]int(nil), in...)
	var total int64
	for _, l := range n.Layers {
		out := l.OutShape(shape)
		switch ll := l.(type) {
		case *Conv2D:
			macs := int64(out[0]) * int64(out[1]) * int64(out[2]) *
				int64(ll.InChannels) * int64(ll.KH) * int64(ll.KW)
			total += 2 * macs
		case *Dense:
			total += 2 * int64(ll.In) * int64(ll.Out)
		}
		shape = out
	}
	return total
}

// Softmax returns the softmax of a logits vector, computed stably.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

// SoftmaxInto is Softmax into the caller-provided dst (len(logits)),
// with the same arithmetic, so hot loops can reuse one buffer.
func SoftmaxInto(dst, logits []float64) {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// CrossEntropyLoss returns the softmax cross-entropy loss and the
// gradient dLoss/dLogits for a single sample.
func CrossEntropyLoss(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	p := Softmax(logits.Data())
	loss := -math.Log(math.Max(p[label], 1e-300))
	grad := tensor.FromSlice(p, logits.Shape()...)
	grad.Data()[label] -= 1
	return loss, grad
}
