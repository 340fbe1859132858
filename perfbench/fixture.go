package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"sei/internal/experiments"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// Fixture sizing: Table-2 Network 2 trained on synthetic digits, with
// a held-out set large enough that one misclassification moves the
// error rate by 1/4096.
const (
	networkID      = 2
	trainSamples   = 1500
	trainEpochs    = 3
	heldOutSamples = 4096
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 3
	// fixtureSeed pins the fixture — training data, network, held-out
	// set, device instances — independently of the input seed.
	fixtureSeed = 1
)

// fixture is the pinned model every workload starts from. It depends
// only on fixtureSeed, so the modelled metrics (error rate, pJ,
// hardware counts) repeat exactly across runs and input seeds.
type fixture struct {
	train, heldOut *mnist.Dataset
	net            *nn.Network
	q              *quant.QuantizedNet // nil when the workload quantizes itself
	design         *seicore.SEIDesign  // the user's default design
}

// layerTimes collects wall time per layer call from outside the layer.
type layerTimes struct {
	synthetic, train                    time.Duration
	search, recalibrate, refine, orders time.Duration
	build, calibrate                    time.Duration
	searchAllocs, searchBytes           uint64
	skipRatio                           float64
}

// buildFixture generates the data, trains Network 2 and, when
// withDesign is set, quantizes it and maps it onto the default SEI
// design, exactly as the sei facade's Quantize and BuildSEIDesign do.
func (b *bench) buildFixture(withDesign bool, rec *obs.Recorder, t *layerTimes) (*fixture, error) {
	f := &fixture{}
	end := span(rec, "mnist.synthetic")
	start := time.Now()
	f.train, f.heldOut = mnist.SyntheticSplit(trainSamples, heldOutSamples, fixtureSeed)
	t.synthetic = time.Since(start)
	end()

	end = span(rec, "nn.train")
	start = time.Now()
	f.net = nn.NewTableNetwork(networkID, fixtureSeed)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = trainEpochs
	tcfg.Seed = fixtureSeed
	tcfg.Workers = b.workers
	tcfg.Obs = rec
	nn.Train(f.net, f.train, tcfg)
	t.train = time.Since(start)
	end()
	if !withDesign {
		return f, nil
	}

	var err error
	if f.q, err = b.quantize(f.net, f.train, rec, t); err != nil {
		return nil, err
	}
	f.design, err = b.buildDesign(f.q, f.train, rram.MaxCrossbarSize, rram.DefaultDeviceModel(), fixtureSeed, rec, t)
	return f, err
}

// quantize runs the user's calibration pipeline — Algorithm 1, FC
// recalibration, threshold refinement, FC recalibration — timing each
// call and counting the search's allocations.
func (b *bench) quantize(net *nn.Network, train *mnist.Dataset, rec *obs.Recorder, t *layerTimes) (*quant.QuantizedNet, error) {
	scfg := quant.DefaultSearchConfig()
	scfg.Workers = b.workers
	scfg.Obs = rec
	end := span(rec, "quant.search")
	allocs := startAllocs()
	start := time.Now()
	q, rep, err := quant.QuantizeNetwork(net, train, []int{1, mnist.Side, mnist.Side}, scfg)
	t.search = time.Since(start)
	t.searchAllocs, t.searchBytes = allocs.since()
	end()
	if err != nil {
		return nil, fmt.Errorf("quantize: %w", err)
	}
	t.skipRatio = rep.Stats.SkipRate()

	ccfg := quant.DefaultRecalibrateConfig()
	ccfg.Workers = b.workers
	ccfg.Obs = rec
	recalibrate := func() error {
		end := span(rec, "quant.recalibrate")
		defer end()
		start := time.Now()
		err := quant.RecalibrateFC(q, train, ccfg)
		t.recalibrate += time.Since(start)
		return err
	}
	t.recalibrate = 0
	if err := recalibrate(); err != nil {
		return nil, fmt.Errorf("recalibrate FC: %w", err)
	}
	rcfg := quant.DefaultRefineConfig()
	rcfg.Workers = b.workers
	rcfg.Obs = rec
	end = span(rec, "quant.refine")
	start = time.Now()
	_, err = quant.RefineThresholds(q, train, rcfg)
	t.refine = time.Since(start)
	end()
	if err != nil {
		return nil, fmt.Errorf("refine thresholds: %w", err)
	}
	if err := recalibrate(); err != nil {
		return nil, fmt.Errorf("recalibrate FC: %w", err)
	}
	return q, nil
}

// buildDesign maps q onto SEI crossbars of the given size and device
// model with homogenized orders and dynamic-threshold calibration (the
// defaults), as the sei facade's BuildDesign does. t.build is the whole
// BuildSEI call, calibration included; attributeCalibration splits it.
func (b *bench) buildDesign(q *quant.QuantizedNet, train *mnist.Dataset, maxCrossbar int, model rram.DeviceModel, seed int64, rec *obs.Recorder, t *layerTimes) (*seicore.SEIDesign, error) {
	cfg := b.buildConfig(maxCrossbar, model)
	cfg.Obs = rec

	end := span(rec, "homog.orders")
	start := time.Now()
	cfg.Orders = experiments.HomogenizedOrdersFor(q, maxCrossbar, seed)
	t.orders = time.Since(start)
	end()

	end = span(rec, "seicore.build")
	start = time.Now()
	d, err := seicore.BuildSEI(q, train, cfg, rand.New(rand.NewSource(seed)))
	t.build, t.calibrate = time.Since(start), 0
	end()
	if err != nil {
		return nil, fmt.Errorf("build SEI: %w", err)
	}
	return d, nil
}

// buildConfig is the default SEI build at the given crossbar size and
// device model.
func (b *bench) buildConfig(maxCrossbar int, model rram.DeviceModel) seicore.SEIBuildConfig {
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.Layer.MaxCrossbar = maxCrossbar
	cfg.Layer.Model = model
	cfg.Workers = b.workers
	return cfg
}

// attributeCalibration splits t.build, a calibrated build of d, into
// build and calibration time by repeating the build without
// calibration. It is for traced runs only, outside any timed region:
// the user's pipeline builds once.
func (b *bench) attributeCalibration(q *quant.QuantizedNet, d *seicore.SEIDesign, maxCrossbar int, model rram.DeviceModel, seed int64, t *layerTimes) error {
	if len(d.CalibResults) == 0 {
		return nil
	}
	cfg := b.buildConfig(maxCrossbar, model)
	cfg.Orders = experiments.HomogenizedOrdersFor(q, maxCrossbar, seed)
	cfg.DynamicThreshold = false
	start := time.Now()
	if _, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(seed))); err != nil {
		return fmt.Errorf("build SEI without calibration: %w", err)
	}
	full := t.build
	t.build = time.Since(start)
	t.calibrate = full - t.build
	return nil
}

// setup runs prepare setupReps times, records setup_s as the median
// and the set-up layers' times as medians too, and returns the last
// repetition's state. Only the last repetition is instrumented, so
// the recorder's counters describe one set-up.
func setup[T any](b *bench, prepare func(rec *obs.Recorder, t *layerTimes) (T, error)) (T, error) {
	var state T
	var times []time.Duration
	var reps []layerTimes
	for i := 0; i < setupReps; i++ {
		var rec *obs.Recorder
		if i == setupReps-1 {
			rec = b.rec
		}
		var t layerTimes
		// Free the previous repetition's state and hand its memory back
		// to the OS, so every repetition starts from the same heap and
		// the peak RSS is one repetition's peak, not two overlapping.
		state = *new(T)
		debug.FreeOSMemory()
		start := time.Now()
		s, err := prepare(rec, &t)
		if err != nil {
			return state, err
		}
		times = append(times, time.Since(start))
		reps = append(reps, t)
		state = s
	}
	b.res.e2e("setup_s", measure{Value: medianDuration(times), Stat: "median", Samples: len(times)})
	b.res.layer("mnist.synthetic_s", medianOf(reps, func(t layerTimes) time.Duration { return t.synthetic }))
	b.res.layer("nn.train_s", medianOf(reps, func(t layerTimes) time.Duration { return t.train }))
	if reps[len(reps)-1].search > 0 {
		b.recordQuant(reps, counterValues(b.rec))
	}
	return state, nil
}

// recordQuant reports the quant, homog and build layers from
// repetitions (medians for times, the last repetition for allocation
// counts) and the search and calibration counters of one repetition.
func (b *bench) recordQuant(reps []layerTimes, counters map[string]int64) {
	med := func(get func(layerTimes) time.Duration) float64 { return medianOf(reps, get) }
	last := reps[len(reps)-1]
	b.res.layer("quant.search_s", med(func(t layerTimes) time.Duration { return t.search }))
	b.res.layer("quant.recalibrate_s", med(func(t layerTimes) time.Duration { return t.recalibrate }))
	b.res.layer("quant.refine_s", med(func(t layerTimes) time.Duration { return t.refine }))
	b.res.layer("homog.orders_s", med(func(t layerTimes) time.Duration { return t.orders }))
	b.res.layer("seicore.build_s", med(func(t layerTimes) time.Duration { return t.build }))
	b.res.layer("seicore.calibrate_s", med(func(t layerTimes) time.Duration { return t.calibrate }))
	b.res.layer("quant.search_allocs", float64(last.searchAllocs))
	b.res.layer("quant.search_alloc_mb", float64(last.searchBytes)/(1<<20))
	b.res.layer("quant.remainder_skip_ratio", last.skipRatio)
	b.res.layer("quant.threshold_candidates", float64(counters[quant.MetricThresholdCandidates]))
	b.res.layer("quant.refine_candidates", float64(counters[quant.MetricRefineCandidates]))
	b.res.layer("seicore.calib_candidates", float64(counters["sei_calib_candidates"]))
}

// medianOf is the median in seconds of one layer time across
// repetitions.
func medianOf(reps []layerTimes, get func(layerTimes) time.Duration) float64 {
	ds := make([]time.Duration, len(reps))
	for i, r := range reps {
		ds[i] = get(r)
	}
	return medianDuration(ds)
}

// counterValues snapshots rec's counters; nil for a nil recorder.
func counterValues(rec *obs.Recorder) map[string]int64 {
	if rec == nil {
		return nil
	}
	return rec.CounterValues()
}

// counterDelta is after − before, per counter.
func counterDelta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// permutation returns a seeded order over n items.
func (b *bench) permutation(n int) []int { return b.rng.Perm(n) }

// sample returns k distinct seeded indices below n.
func (b *bench) sample(n, k int) []int {
	if k > n {
		k = n
	}
	return b.rng.Perm(n)[:k]
}

// pick gathers images by index.
func pick(imgs []*tensor.Tensor, idx []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(idx))
	for i, j := range idx {
		out[i] = imgs[j]
	}
	return out
}
