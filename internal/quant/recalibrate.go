package quant

import (
	"fmt"
	"math/rand"

	"sei/internal/bitvec"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
)

// RecalibrateConfig controls the optional FC recalibration step.
type RecalibrateConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// Workers parallelizes the frozen-feature precomputation (0 = all
	// cores, 1 = serial). The SGD loop itself stays serial: it is
	// order-dependent and cheap next to the feature extraction.
	Workers int
	// Obs, when set, receives the engine scheduling metrics for the
	// feature precomputation.
	Obs *obs.Recorder
}

// DefaultRecalibrateConfig trains the classifier head for a few cheap
// epochs.
func DefaultRecalibrateConfig() RecalibrateConfig {
	return RecalibrateConfig{Epochs: 5, BatchSize: 16, LR: 0.05, Seed: 1}
}

// RecalibrateFC retrains only the final FC layer on the binarized
// features (softmax regression; the conv stages and thresholds are
// frozen). The paper does not need this step — its Caffe-trained
// networks lose <1 % from binarization — but on a weaker substrate the
// FC layer, trained against real-valued activations, can be mis-scaled
// for 0/1 inputs; recalibration removes exactly that mismatch without
// touching the hardware-relevant parts of the design. It is opt-in and
// reported separately in EXPERIMENTS.md.
func RecalibrateFC(q *QuantizedNet, train *mnist.Dataset, cfg RecalibrateConfig) error {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return fmt.Errorf("quant: invalid recalibrate config %+v", cfg)
	}
	if err := par.Validate(cfg.Workers); err != nil {
		return fmt.Errorf("quant: recalibrate config: %w", err)
	}
	// Precompute the frozen binary features once, one slot per sample,
	// bit-packed: the features are 0/1 by construction, so a bitvec
	// stores them 64× denser and NextSet iteration visits exactly the
	// indices the dense `xv != 0` scan visited, in the same ascending
	// order — gradients and logits stay bit-identical.
	features := make([]*bitvec.Vec, train.Len())
	par.ForEachRec(cfg.Obs, cfg.Workers, train.Len(), func(i int) {
		v := &bitvec.Vec{}
		v.SetFloats(q.StageInput(train.Images[i], len(q.Convs)).Data())
		features[i] = v
	})

	out, in := q.FC.W.Dim(0), q.FC.W.Dim(1)
	w := q.FC.W.Data()
	b := q.FC.B
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := rng.Perm(train.Len())

	// Gradient, logit and probability buffers hoisted out of the batch
	// loop; the serial SGD reuses them across every batch and epoch.
	gw := make([]float64, len(w))
	gb := make([]float64, len(b))
	logits, p := make([]float64, out), make([]float64, out)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			clear(gw)
			clear(gb)
			for _, s := range idx[start:end] {
				x := features[s]
				for o := 0; o < out; o++ {
					row := w[o*in : (o+1)*in]
					acc := b[o]
					for j := x.NextSet(0); j >= 0; j = x.NextSet(j + 1) {
						acc += row[j]
					}
					logits[o] = acc
				}
				nn.SoftmaxInto(p, logits)
				p[train.Labels[s]] -= 1
				for o := 0; o < out; o++ {
					if p[o] == 0 {
						continue
					}
					row := gw[o*in : (o+1)*in]
					for j := x.NextSet(0); j >= 0; j = x.NextSet(j + 1) {
						row[j] += p[o]
					}
					gb[o] += p[o]
				}
			}
			scale := cfg.LR / float64(end-start)
			for i := range w {
				w[i] -= scale * gw[i]
			}
			for i := range b {
				b[i] -= scale * gb[i]
			}
		}
	}
	return nil
}
