package main

import (
	"time"

	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/rram"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// floatCheckImages is how many images the float path re-evaluates to
// check the fast paths against it; the float path is several times
// slower, so it checks a seeded sample rather than every image.
const floatCheckImages = 256

// batchBurst is how long each burst of PredictBatch calls runs between
// two one-caller Predict passes (one pass takes about as long).
const batchBurst = 500 * time.Millisecond

// batchPasses runs PredictBatch over images at the bench's worker
// count until dur has passed (at least once) and returns ns per image
// of each call and the last call's results.
func (b *bench) batchPasses(rec *obs.Recorder, c nn.Classifier, images []*tensor.Tensor, dur time.Duration) ([]float64, []nn.PredictResult) {
	var ns []float64
	var dst []nn.PredictResult
	deadline := time.Now().Add(dur)
	for len(ns) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		dst = nn.PredictBatchInto(rec, c, images, b.workers, dst)
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(len(images)))
	}
	return ns, dst
}

// runOffline: the user's 512×512 ideal-analog design over the held-out
// set — PredictBatch at nproc workers (the 64-lane sliced path),
// alternating with one closed-loop caller of single-image Predict. The traced run then
// serves the same design under open-loop load (measureServe).
func runOffline(b *bench) error {
	f, err := setup(b, func(rec *obs.Recorder, t *layerTimes) (*fixture, error) {
		return b.buildFixture(true, rec, t)
	})
	if err != nil {
		return err
	}
	d := f.design
	order := b.permutation(len(f.heldOut.Images))
	stream := pick(f.heldOut.Images, order)

	// Batch bursts alternate with one-caller Predict passes, so both
	// figures sample the whole window: the host's speed drifts over
	// seconds, and a figure taken in one stretch of the window reads
	// whichever speed that stretch had. A traced run leaves a quarter
	// of the window for a traced batch pass.
	loopShare := 0.9
	if b.traced {
		loopShare = 0.65
	}
	var batchNS, lat []float64
	var sliced, labels []int
	deadline := time.Now().Add(b.share(loopShare))
	for len(lat) == 0 || time.Now().Before(deadline) {
		d.Instrument(nil)
		ns, res := b.batchPasses(nil, d, stream, batchBurst)
		batchNS, sliced = append(batchNS, ns...), labelsOf(res)
		d.Instrument(b.rec)
		end := span(b.rec, "seicore.predict")
		l, labs := probe(d, stream, seqIndex(len(stream)), 0)
		end()
		lat, labels = append(lat, l...), append(labels, labs...)
	}
	rate := measure{Value: 1e9 / fastest(batchNS), Stat: "fastest", Samples: len(batchNS)}
	b.res.e2e("throughput_per_s", rate)
	b.res.named("images_per_s", "1/s", rate)
	if b.traced {
		before := counterValues(b.rec)
		end := span(b.rec, "nn.predict_batch")
		tracedNS, res := b.batchPasses(b.rec, d, stream, b.share(0.25))
		end()
		delta := counterDelta(before, counterValues(b.rec))
		calls := float64(len(tracedNS))
		b.res.layer("nn.predict_batch_ns_per_image", median(tracedNS))
		b.res.layer("nn.sliced_groups", float64(delta[nn.MetricSlicedGroups])/calls)
		b.res.layer("nn.sliced_fallbacks", float64(delta[nn.MetricSlicedFallbacks])/calls)
		b.res.layer("par.chunks", float64(delta[par.MetricChunks])/calls)
		b.res.layer("obs.overhead_pct", overheadPct(median(tracedNS), median(batchNS)))
		b.res.addCheck("traced-vs-untraced-batch", len(sliced), compareLabels(labelsOf(res), sliced))
	}

	// Every per-image label must equal the sliced label of the same
	// image (each probe pass covers the stream once, in order).
	bad := 0
	for i, l := range labels {
		if l != sliced[i%len(sliced)] {
			bad++
		}
	}
	b.res.addCheck("per-image-vs-sliced", len(labels), bad)
	lt := perInput(lat, len(stream))
	b.res.timing(lt)
	b.res.named("predict_p50_us", "us", measure{Value: lt.P50 * 1e6, Stat: "median input, fastest pass", Samples: lt.N})
	b.res.named("predict_tail_us", "us", measure{Value: lt.Tail * 1e6, Stat: percentileName(lt.TailQ), Samples: lt.N})
	if b.traced {
		b.res.layer("seicore.predict_ns", lt.P50*1e9)
		b.res.layer("seicore.predict_allocs_per_image", allocsPerCall(d, stream, 2000))
	}

	// The float path (fast paths off) on a seeded sample.
	sample := b.sample(len(stream), floatCheckImages)
	d.SetFastPath(false)
	bad = 0
	for _, i := range sample {
		if d.Predict(stream[i]) != sliced[i] {
			bad++
		}
	}
	d.SetFastPath(true)
	b.res.addCheck("float-vs-sliced", len(sample), bad)

	if err := b.recordReference(d, f, order, sliced); err != nil {
		return err
	}
	if b.traced {
		return b.measureServe(f)
	}
	return nil
}

// recordReference evaluates the design over the held-out set in its
// canonical order with a fresh recorder, reports the modelled metrics,
// and checks that this instrumented pass labels every image as the
// timed, permuted pass did.
func (b *bench) recordReference(d *seicore.SEIDesign, f *fixture, order, labels []int) error {
	m, err := b.evaluate(d, f.heldOut.Images, f.heldOut.Labels)
	if err != nil {
		return err
	}
	bad := 0
	for j, i := range order {
		if m.labels[i] != labels[j] {
			bad++
		}
	}
	b.res.addCheck("instrumented-vs-timed", len(order), bad)
	b.res.named("error_rate", "ratio", measure{Value: m.errorRate, Stat: "value", Samples: m.images})
	b.res.named("pj_per_image", "pJ", measure{Value: m.pj, Stat: "value", Samples: m.images})
	return b.recordModelled(m, f.q, rram.MaxCrossbarSize)
}

// seqIndex is 0..n-1.
func seqIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
