package main

import (
	"fmt"
	"time"

	"sei/internal/arch"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/power"
	"sei/internal/quant"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// modelled is what the simulator models for a design over a fixed
// image set: deterministic, so it repeats exactly run to run.
type modelled struct {
	images    int
	errorRate float64
	pj        float64
	labels    []int
	counters  map[string]int64
	breakdown power.Breakdown
}

// evaluate runs the design over images with a fresh recorder attached
// and derives the error rate, the counter-derived pJ per image and the
// hardware counts. The design's previous instrumentation (b.rec) is
// restored afterwards.
func (b *bench) evaluate(d *seicore.SEIDesign, images []*tensor.Tensor, labels []int) (modelled, error) {
	rec := obs.New()
	d.Instrument(rec)
	res := nn.PredictBatchObs(rec, d, images, b.workers)
	d.Instrument(b.rec)
	m := modelled{images: len(images), labels: make([]int, len(res))}
	wrong := 0
	for i, r := range res {
		if r.Err != nil {
			return m, fmt.Errorf("predict image %d: %w", i, r.Err)
		}
		m.labels[i] = r.Label
		if r.Label != labels[i] {
			wrong++
		}
	}
	m.errorRate = float64(wrong) / float64(len(images))
	rep := rec.Report(b.workload)
	m.counters = rep.Counters
	var err error
	if m.breakdown, err = power.EnergyFromCounters(rep, power.DefaultLibrary()); err != nil {
		return m, err
	}
	m.pj = m.breakdown.Total() / float64(len(images))
	return m, nil
}

// recordModelled reports the modelled figures: error_rate and
// pj_per_image end to end, hardware counts and the pJ split per layer,
// and the static architecture model's pJ per image for comparison.
func (b *bench) recordModelled(m modelled, q *quant.QuantizedNet, maxCrossbar int) error {
	n := float64(m.images)
	b.res.e2e("error_rate", measure{Value: m.errorRate, Stat: "value", Samples: m.images})
	b.res.e2e("pj_per_image", measure{Value: m.pj, Stat: "value", Samples: m.images})
	for name, counter := range map[string]string{
		"hw.mvm_ops_per_image":            obs.HWMVMOps,
		"hw.sa_comparisons_per_image":     obs.HWSAComparisons,
		"hw.active_inputs_per_image":      obs.HWActiveInputs,
		"hw.column_activations_per_image": obs.HWColumnActivations,
		"hw.orpool_reductions_per_image":  obs.HWORPoolReductions,
	} {
		b.res.layer(name, float64(m.counters[counter])/n)
	}
	b.res.layer("power.sa_pj_per_image", m.breakdown.SA/n)
	b.res.layer("power.rram_pj_per_image", m.breakdown.RRAM/n)
	b.res.layer("power.driver_pj_per_image", m.breakdown.Driver/n)
	b.res.layer("power.digital_pj_per_image", m.breakdown.Digital/n)
	geoms, err := arch.GeometryOf(q)
	if err != nil {
		return err
	}
	cfg := arch.DefaultConfig(seicore.StructSEI)
	cfg.MaxCrossbar = maxCrossbar
	mapping, err := arch.Map(geoms, cfg)
	if err != nil {
		return err
	}
	_, static := mapping.Energy(power.DefaultLibrary())
	b.res.layer("arch.static_pj_per_image", static.Total())
	return nil
}

// probe is a closed-loop, one-caller pass of single-image Predict
// calls over images in the given order, repeated until dur has passed
// (at least one full pass). It returns each call's latency in seconds
// and the label of each call (image index order[i%len(order)]).
func probe(c nn.Classifier, images []*tensor.Tensor, order []int, dur time.Duration) (lat []float64, labels []int) {
	deadline := time.Now().Add(dur)
	for i := 0; ; i++ {
		img := images[order[i%len(order)]]
		start := time.Now()
		label := c.Predict(img)
		now := time.Now()
		lat = append(lat, now.Sub(start).Seconds())
		labels = append(labels, label)
		if i+1 >= len(order) && now.After(deadline) {
			return lat, labels
		}
	}
}

// allocsPerCall counts heap allocations over n single-image Predict
// calls, after one warm-up call.
func allocsPerCall(c nn.Classifier, images []*tensor.Tensor, n int) float64 {
	c.Predict(images[0])
	a := startAllocs()
	for i := 0; i < n; i++ {
		c.Predict(images[i%len(images)])
	}
	mallocs, _ := a.since()
	return float64(mallocs) / float64(n)
}

// compareLabels counts positions where got and want differ.
func compareLabels(got, want []int) int {
	bad := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// labelsOf extracts labels, counting errored results as mismatches
// (label -1).
func labelsOf(res []nn.PredictResult) []int {
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.Label
		if r.Err != nil {
			out[i] = -1
		}
	}
	return out
}

// overheadPct is how much slower the traced figure is than the
// untraced one, in percent.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
