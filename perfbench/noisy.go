package main

import (
	"fmt"
	"time"

	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/rram"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// Campaign sizing: M device instances, each evaluated over the first
// campaignImages held-out images. The instances are pinned by the
// fixture seed, so the campaign's mean error rate repeats exactly. Many
// instances over a short image set keep one pass near a quarter second,
// so a run times dozens of passes and a host stall of a second or two
// does not move the fastest.
const (
	instances      = 16
	campaignImages = 512
	// referenceImages is the instrumented pass that yields pJ, hardware
	// counts and noise draws per image.
	referenceImages  = 512
	noisyCheckImages = 256
	// passesPerProbe is how many campaign passes run between two
	// one-caller Predict passes over the campaign images.
	passesPerProbe = 2
)

// noisyModel is the user's default device with per-cell read noise and
// stuck-at faults added on top of its programming variation.
func noisyModel() rram.DeviceModel {
	m := rram.DefaultDeviceModel()
	m.ReadNoiseSigma = 0.05
	m.ReadNoisePerCell = true
	m.StuckOnRate = 0.001
	m.StuckOffRate = 0.001
	return m
}

// campaignPass is one instance's evaluation of the campaign images.
type campaignPass struct {
	instance int
	ns       float64 // per image
	labels   []int
}

// evalInstance is one campaign pass: instance i of insts over images,
// with rec attached for the pass.
func (b *bench) evalInstance(rec *obs.Recorder, insts []*seicore.SEIDesign, i int, images []*tensor.Tensor) campaignPass {
	d := insts[i]
	d.Instrument(rec)
	defer d.Instrument(b.rec)
	start := time.Now()
	res := nn.PredictBatch(d, images, b.workers)
	ns := float64(time.Since(start).Nanoseconds()) / float64(len(images))
	return campaignPass{instance: i, ns: ns, labels: labelsOf(res)}
}

// runNoisy: a Monte Carlo campaign over seeded device instances with
// programming variation, per-cell read noise and stuck-at faults, on
// the packed noisy path.
func runNoisy(b *bench) error {
	f, err := setup(b, func(rec *obs.Recorder, t *layerTimes) (*fixture, error) {
		return b.buildFixture(true, rec, t)
	})
	if err != nil {
		return err
	}
	images := f.heldOut.Images[:campaignImages]
	labels := f.heldOut.Labels[:campaignImages]

	insts := make([]*seicore.SEIDesign, instances)
	var builds []time.Duration
	for i := range insts {
		var t layerTimes
		d, err := b.buildDesign(f.q, f.train, rram.MaxCrossbarSize, noisyModel(), fixtureSeed+1000+int64(i), b.rec, &t)
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		insts[i], builds = d, append(builds, t.build)
	}
	b.res.layer("seicore.build_s", medianDuration(builds))

	// Campaign passes alternate with one-caller Predict passes on an
	// evaluation clone (its own noise streams; the campaign is
	// untouched), so both figures sample the whole window: the host's
	// speed drifts over seconds.
	clone := insts[0].CloneForEval(b.seed)
	perm := b.permutation(len(images))
	var untraced []campaignPass
	var lat []float64
	deadline := time.Now().Add(b.share(0.85))
	for p := 0; p < len(insts) || time.Now().Before(deadline); {
		for k := 0; k < passesPerProbe; k, p = k+1, p+1 {
			untraced = append(untraced, b.evalInstance(nil, insts, p%len(insts), images))
		}
		end := span(b.rec, "seicore.predict")
		l, _ := probe(clone, images, perm, 0)
		end()
		lat = append(lat, l...)
	}
	ns := make([]float64, len(untraced))
	for i, p := range untraced {
		ns[i] = p.ns
	}
	rate := measure{Value: 1e9 / fastest(ns), Stat: "fastest", Samples: len(ns)}
	b.res.e2e("throughput_per_s", rate)
	b.res.named("noisy_images_per_s", "1/s", rate)
	lt := perInput(lat, len(perm))
	b.res.timing(lt)
	b.res.named("noisy_predict_p50_us", "us", measure{Value: lt.P50 * 1e6, Stat: "median input, fastest pass", Samples: lt.N})
	if b.traced {
		b.res.layer("seicore.predict_ns", lt.P50*1e9)
	}

	// The campaign's error rate is the mean over the first pass of each
	// instance; every later pass of an instance must repeat it label for
	// label (per-chunk noise streams are seeded, not shared).
	first := make([][]int, instances)
	meanErr := 0.0
	repeats, repeatBad := 0, 0
	for _, p := range untraced {
		if first[p.instance] == nil {
			first[p.instance] = p.labels
			meanErr += float64(compareLabels(p.labels, labels)) / float64(len(labels)) / instances
			continue
		}
		repeats += len(labels)
		repeatBad += compareLabels(p.labels, first[p.instance])
	}
	b.res.addCheck("campaign-repeat", repeats, repeatBad)

	if b.traced {
		before := counterValues(b.rec)
		allocs := startAllocs()
		end := span(b.rec, "seicore.noisy_campaign")
		var traced []campaignPass
		for i := range insts {
			traced = append(traced, b.evalInstance(b.rec, insts, i, images))
		}
		end()
		mallocs, _ := allocs.since()
		delta := counterDelta(before, counterValues(b.rec))
		tns := make([]float64, len(traced))
		bad := 0
		for i, p := range traced {
			tns[i] = p.ns
			bad += compareLabels(p.labels, first[p.instance])
		}
		b.res.addCheck("traced-vs-untraced-campaign", len(traced)*len(labels), bad)
		n := float64(len(traced) * len(images))
		b.res.layer("seicore.noisy_ns_per_image", median(tns))
		b.res.layer("nn.predict_batch_ns_per_image", median(tns))
		b.res.layer("seicore.noisy_allocs_per_image", float64(mallocs)/n)
		b.res.layer("par.chunks", float64(delta[par.MetricChunks])/float64(len(traced)))
		b.res.layer("obs.overhead_pct", overheadPct(median(tns), median(ns)))
	}

	if err := b.checkNoisyPaths(insts[0], pick(images, b.sample(len(images), noisyCheckImages))); err != nil {
		return err
	}

	m, err := b.evaluate(insts[0], images[:referenceImages], labels[:referenceImages])
	if err != nil {
		return err
	}
	m.errorRate = meanErr
	b.res.named("error_rate", "ratio", measure{Value: meanErr, Stat: fmt.Sprintf("mean of %d instances", instances), Samples: instances * len(images)})
	b.res.named("pj_per_image", "pJ", measure{Value: m.pj, Stat: "value", Samples: m.images})
	b.res.layer("seicore.noise_draws_per_image", float64(m.counters[obs.SEINoiseDraws])/float64(m.images))
	if err := b.recordModelled(m, f.q, rram.MaxCrossbarSize); err != nil {
		return err
	}
	b.res.e2e("error_rate", measure{Value: meanErr, Stat: "mean", Samples: instances * len(images)})
	return nil
}

// checkNoisyPaths evaluates sample on the packed noisy path and on the
// float path (fast paths off) with the same chunk seeding; labels, the
// noise-draw ledger and every hardware counter must agree.
func (b *bench) checkNoisyPaths(d *seicore.SEIDesign, sample []*tensor.Tensor) error {
	run := func(fast bool) ([]int, map[string]int64) {
		rec := obs.New()
		d.Instrument(rec)
		d.SetFastPath(fast)
		res := nn.PredictBatchObs(rec, d, sample, b.workers)
		d.SetFastPath(true)
		d.Instrument(b.rec)
		return labelsOf(res), rec.CounterValues()
	}
	packed, pc := run(true)
	float, fc := run(false)
	b.res.addCheck("packed-vs-float-labels", len(sample), compareLabels(packed, float))
	bad := 0
	for _, name := range []string{obs.SEINoiseDraws, obs.HWMVMOps, obs.HWSAComparisons, obs.HWActiveInputs, obs.HWColumnActivations, obs.HWORPoolReductions} {
		if pc[name] != fc[name] {
			bad++
			b.res.note("packed vs float %s: %d != %d", name, pc[name], fc[name])
		}
	}
	if pc[obs.SEINoiseDraws] == 0 {
		return fmt.Errorf("noisy instance drew no read noise")
	}
	b.res.addCheck("packed-vs-float-counters", 6, bad)
	return nil
}
