package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"sei/internal/load"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/seicore"
	"sei/internal/serve"
	"sei/internal/tensor"
)

// Serving settings: seibench's batcher configuration, a latency limit
// on the requests' p99, and two fixed offered rates, near 20 % and 25 %
// of the mix's capacity (1,070–1,420 rps over eight runs on a 2-CPU
// host). The heavy rate stays far below 75 %: at 450 rps (about 35 %)
// a host stall filled the 256-image queue in one traced run of four,
// and at 700 rps in one of one; the queue then refuses requests, and
// every refusal is a failed operation.
//
// The limit is 100 ms, not 10 ms: a 64-image request spends several
// milliseconds in JSON decoding alone, and the mix's p99 was 17–29 ms
// at the light rate on that host, so a 10 ms limit is met at no rate.
// 100 ms is met below saturation and broken once queues build, so the
// search finds the saturation knee.
const (
	lightRate = 260.0
	heavyRate = 350.0
	// capacityGuess is where the capacity search starts: the capacity
	// measured on the 2-CPU host.
	capacityGuess = 1000.0
	tailLimit     = 0.100 // seconds
	failLimit     = 0.01  // share of requests
	designName    = "bench"
	// probeRequests is how many requests a capacity probe sends: the
	// fewest whose p99 has ten samples beyond it.
	probeRequests = 1000
	// probeGrow is the factor between probes until the capacity is
	// bracketed; probeTol is the bracket width (relative) that ends the
	// search.
	probeGrow = 1.15
	probeTol  = 0.05
	// backlogSlack is the latency rise (seconds) a probe may show
	// between its first and last quarter before the backlog counts as
	// growing.
	backlogSlack = 0.002
)

// The request mix is seibench's (cmd/seibench mixSizeFor): 80 % single
// images, 15 % 8-image requests and 5 % 64-image requests (one full
// sliced group), in every phase.
var (
	mixSizes   = []int{1, 8, 64}
	mixWeights = []float64{0.80, 0.15, 0.05}
	// bodiesPerSize is how many distinct pre-encoded bodies each size
	// cycles through.
	bodiesPerSize = map[int]int{1: 64, 8: 16, 64: 4}
)

// body is one pre-encoded predict request and the labels the offline
// engine gives its images.
type body struct {
	data []byte
	want []int
}

type serveInputs struct {
	f      *fixture
	bodies map[int][]body // by images per request
}

// stack is one in-process serving stack: registry, per-design batcher
// pool and HTTP handler, driven through ServeHTTP (no sockets).
type stack struct {
	h       http.Handler
	pool    *serve.Pool
	batcher *serve.Batcher
}

func (b *bench) newStack(d *seicore.SEIDesign, rec *obs.Recorder) (*stack, error) {
	reg := serve.NewRegistry("", fixtureSeed)
	reg.Register(designName, d)
	pool, err := serve.NewPool(serve.BatcherConfig{
		MaxBatch: 64,
		MaxDelay: 2 * time.Millisecond,
		QueueCap: 256,
		Workers:  b.workers,
		Obs:      rec,
	})
	if err != nil {
		return nil, err
	}
	bt, err := pool.For(designName)
	if err != nil {
		pool.Close()
		return nil, err
	}
	h := serve.NewHandler(serve.Options{Registry: reg, Pool: pool, Obs: rec})
	return &stack{h: h, pool: pool, batcher: bt}, nil
}

// planned is one scheduled request.
type planned struct {
	due  time.Duration
	body *body
}

// outcome is one request's record: when it was due, when the generator
// actually sent it, when the response was complete, and the response.
type outcome struct {
	due, sent, done time.Duration
	status          int
	resp            []byte
}

// plan draws n Poisson arrivals at rate from load.Schedule and shapes
// the requests as a seeded shuffle of exactly the composition
// mixWeights give, so every phase carries the same share of each
// request size.
func (b *bench) plan(in *serveInputs, rate float64, n int) []planned {
	sched := load.Schedule(load.Config{Rate: rate, Requests: n, Seed: b.rng.Int63()})
	sizes := make([]int, 0, n)
	for k := len(mixSizes) - 1; k > 0; k-- {
		for c := int(math.Round(mixWeights[k] * float64(n))); c > 0 && len(sizes) < n; c-- {
			sizes = append(sizes, mixSizes[k])
		}
	}
	for len(sizes) < n {
		sizes = append(sizes, mixSizes[0])
	}
	b.rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	out := make([]planned, n)
	for i, due := range sched {
		pool := in.bodies[sizes[i]]
		out[i] = planned{due: due, body: &pool[b.rng.Intn(len(pool))]}
	}
	return out
}

// openLoop sends every planned request at its due time, each on its
// own goroutine, whether or not earlier ones have completed, and
// returns once all have. Latency is timed from the due time, so a
// generator or server stall is charged to every request it delays.
func openLoop(h http.Handler, plan []planned) []outcome {
	out := make([]outcome, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range plan {
		if wait := time.Until(start.Add(plan[i].due)); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due, out[i].sent = plan[i].due, time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(plan[i].body.data))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			out[i].done = time.Since(start)
			out[i].status = w.Code
			out[i].resp = w.Body.Bytes()
		}(i)
	}
	wg.Wait()
	return out
}

// phase summarizes one open-loop run.
type phase struct {
	name       string
	rate       float64
	sent       int
	failed     int // non-200 responses
	mismatched int // 200 responses whose labels differ from offline
	lat, late  dist
	// limitTail is the tail the latency limit is checked against: a
	// failed request counts as missing the limit (infinite latency).
	limitTail dist
	achieved  float64 // successful responses per second
	backlog   bool    // latency kept rising through the phase
	cpuPerReq float64 // process CPU seconds per request sent
}

// analyze checks every response against the offline labels and
// reduces the timings.
func analyze(name string, rate float64, plan []planned, out []outcome) phase {
	p := phase{name: name, rate: rate, sent: len(out)}
	var lat []float64
	due := make([]time.Duration, len(out))
	sent := make([]time.Duration, len(out))
	var last time.Duration
	for i, o := range out {
		due[i], sent[i] = o.due, o.sent
		if o.done > last {
			last = o.done
		}
		if o.status != http.StatusOK {
			p.failed++
			continue
		}
		if !matches(o.resp, plan[i].body.want) {
			p.mismatched++
			continue
		}
		lat = append(lat, (o.done - o.due).Seconds())
	}
	p.lat = segmented(lat)
	missed := append([]float64(nil), lat...)
	for i := 0; i < p.failed+p.mismatched; i++ {
		missed = append(missed, math.Inf(1))
	}
	p.limitTail = summarize(missed)
	p.late = summarize(lateness(due, sent))
	p.backlog = backlogGrowing(lat, backlogSlack)
	if last > 0 {
		p.achieved = float64(len(lat)) / last.Seconds()
	}
	return p
}

// matches reports whether a predict response carries exactly the
// wanted labels, with no per-image error.
func matches(resp []byte, want []int) bool {
	var r struct {
		Results []struct {
			Label int    `json:"label"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(resp, &r); err != nil || len(r.Results) != len(want) {
		return false
	}
	for k, res := range r.Results {
		if res.Label != want[k] || res.Error != "" {
			return false
		}
	}
	return true
}

// record adds the phase's figures to the detail report.
func (b *bench) record(p phase) {
	b.res.Phases = append(b.res.Phases, map[string]float64{
		"rate": p.rate, "sent": float64(p.sent), "failed": float64(p.failed), "mismatched": float64(p.mismatched),
		"p50_ms": p.lat.P50 * 1e3, "tail_ms": p.lat.Tail * 1e3, "tail_q": p.lat.TailQ,
		"late_tail_ms": p.late.Tail * 1e3, "achieved_rps": p.achieved, "backlog": float64(btoi(p.backlog)),
		"cpu_ms_per_request": p.cpuPerReq * 1e3,
	})
	fmt.Printf("phase %-12s rate=%6.1f sent=%5d failed=%3d mismatched=%d p50=%.3fms %s=%.3fms late_%s=%.3fms achieved=%.1f/s backlog=%v cpu/req=%.3fms\n",
		p.name, p.rate, p.sent, p.failed, p.mismatched, p.lat.P50*1e3, percentileName(p.lat.TailQ), p.lat.Tail*1e3,
		percentileName(p.late.TailQ), p.late.Tail*1e3, p.achieved, p.backlog, p.cpuPerReq*1e3)
}

// runPhase plans, runs, checks and records one fixed-rate phase. Every
// failed or mismatched request counts as a failed operation.
func (b *bench) runPhase(s *stack, in *serveInputs, name string, rate float64, dur time.Duration) phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	plan := b.plan(in, rate, n)
	cpu := cpuSeconds()
	out := openLoop(s.h, plan)
	cpu = cpuSeconds() - cpu
	p := analyze(name, rate, plan, out)
	p.cpuPerReq = cpu / float64(n)
	b.record(p)
	b.res.addCheck("serve-"+name+"-labels", p.sent-p.failed, p.mismatched)
	b.res.addRefusals("serve-"+name+"-refused", p.sent, p.failed)
	return p
}

// serveInputsFor pre-encodes the request bodies. Body images are
// held-out images drawn by a generator seeded with the bench seed, with
// pixels rounded to three decimals as an 8-bit client would send them;
// their expected labels come from the offline engine on exactly those
// pixels.
func (b *bench) serveInputsFor(f *fixture) (*serveInputs, error) {
	in := &serveInputs{f: f, bodies: map[int][]body{}}
	rng := rand.New(rand.NewSource(b.seed))
	var pixels [][][]float64
	var imgs []*tensor.Tensor
	for _, size := range mixSizes {
		for k := 0; k < bodiesPerSize[size]; k++ {
			px := make([][]float64, size)
			for j := range px {
				src := f.heldOut.Images[rng.Intn(len(f.heldOut.Images))].Data()
				px[j] = make([]float64, len(src))
				for i, v := range src {
					px[j][i] = math.Round(v*1000) / 1000
				}
				imgs = append(imgs, tensor.FromSlice(px[j], 1, mnist.Side, mnist.Side))
			}
			pixels = append(pixels, px)
		}
	}
	want := labelsOf(nn.PredictBatch(f.design, imgs, b.workers))
	next := 0
	for _, px := range pixels {
		data, err := json.Marshal(map[string]any{"design": designName, "images": px})
		if err != nil {
			return nil, err
		}
		in.bodies[len(px)] = append(in.bodies[len(px)], body{data: data, want: want[next : next+len(px)]})
		next += len(px)
	}
	return in, nil
}

// measureServe drives the serving stack with the fixture's design
// under open-loop Poisson arrivals — a capacity search, then fixed
// light and heavy rates, then the heavy rate again on a traced stack —
// and reports the serve and load layers. It runs in offline-eval's
// traced run: serving latency on the shared 2-CPU host moved too much
// between runs of the same code to gate (under the mix, the light-rate
// p99 ranged 17–29 ms and the capacity 1,070–1,420 rps over eight runs),
// so no end-to-end metric rests on it and its figures are per-layer and
// named.
func (b *bench) measureServe(f *fixture) error {
	in, err := b.serveInputsFor(f)
	if err != nil {
		return err
	}
	d := f.design
	d.Instrument(nil)
	s, err := b.newStack(d, nil)
	if err != nil {
		return err
	}
	defer s.pool.Close()

	b.runPhase(s, in, "warmup", lightRate, 500*time.Millisecond)

	limits := capacityLimits{TailMax: tailLimit, FailedShare: failLimit}
	deadline := time.Now().Add(b.share(0.35))
	capacity, steps := searchCapacity(capacityGuess, probeGrow, probeTol, 10, limits, func(rate float64) (stepResult, bool) {
		if time.Now().After(deadline) {
			return stepResult{}, false
		}
		plan := b.plan(in, rate, probeRequests)
		p := analyze("probe", rate, plan, openLoop(s.h, plan))
		b.record(p)
		// A wrong label is a failed operation even while probing; a
		// refused request is what the probe measures.
		b.res.addCheck("serve-probe-labels", p.sent-p.failed, p.mismatched)
		return stepResult{Rate: rate, Sent: p.sent, Failed: p.failed + p.mismatched, Tail: p.limitTail.Tail,
			TailQ: p.limitTail.TailQ, Backlog: p.backlog}, true
	})
	if capacity == 0 {
		return fmt.Errorf("no probe met p-tail <= %gms with <= %g%% failed (probes: %+v)", tailLimit*1e3, failLimit*100, steps)
	}
	b.res.named("serve_capacity_rps", "1/s", measure{Value: capacity, Stat: "capacity", Samples: len(steps)})
	b.res.layer("serve.slo_capacity_rps", capacity)

	light := b.runPhase(s, in, "light", lightRate, b.share(0.6))
	b.res.named("serve_light_p50_ms", "ms", measure{Value: light.lat.P50 * 1e3, Stat: "median", Samples: light.lat.N})
	b.res.named("serve_light_tail_ms", "ms", measure{Value: light.lat.Tail * 1e3, Stat: percentileName(light.lat.TailQ), Samples: light.lat.N})

	heavy := b.runPhase(s, in, "heavy", heavyRate, b.share(0.35))
	b.res.layer("serve.heavy_p50_ms", heavy.lat.P50*1e3)
	b.res.layer("serve.heavy_tail_ms", heavy.lat.Tail*1e3)
	// CPU capacity: the request rate that would keep the process's CPUs
	// busy, from the CPU time each request of the heavy phase cost. It
	// moved 5–13 % between runs where the capacity search moved by a
	// third.
	cpuCapacity := float64(b.workers) / heavy.cpuPerReq
	b.res.named("serve_cpu_capacity_rps", "1/s", measure{Value: cpuCapacity, Stat: "nproc/cpu_per_request", Samples: heavy.sent})
	b.res.named("serve_heavy_p50_ms", "ms", measure{Value: heavy.lat.P50 * 1e3, Stat: "median", Samples: heavy.lat.N})
	b.res.named("serve_heavy_tail_ms", "ms", measure{Value: heavy.lat.Tail * 1e3, Stat: percentileName(heavy.lat.TailQ), Samples: heavy.lat.N})

	// The heavy rate again on a stack whose layers record into the
	// traced recorder.
	d.Instrument(b.rec)
	ts, err := b.newStack(d, b.rec)
	if err != nil {
		return err
	}
	before := counterValues(b.rec)
	traced := b.runPhase(ts, in, "heavy-traced", heavyRate, b.share(0.35))
	flush := ts.batcher.FlushLatency()
	ts.pool.Close()
	b.recordServeLayers(counterDelta(before, counterValues(b.rec)), flush)
	b.res.layer("load.late_p99_ms", traced.late.Tail*1e3)
	b.res.layer("load.offered_rps", traced.rate)
	b.res.layer("load.achieved_rps", traced.achieved)
	return nil
}

// recordServeLayers reports the batcher and handler figures of the
// traced heavy phase.
func (b *bench) recordServeLayers(delta map[string]int64, flush time.Duration) {
	rep := b.rec.Report(b.workload)
	batches := float64(delta[serve.MetricBatches])
	b.res.layer("serve.batches", batches)
	b.res.layer("serve.queue_full", float64(delta[serve.MetricQueueFull]))
	b.res.layer("serve.deadline_shed", float64(delta[serve.MetricDeadlineShed]))
	b.res.layer("serve.flush_ms", flush.Seconds()*1e3)
	if h, ok := rep.Histograms[serve.MetricBatchSize]; ok && h.Count > 0 {
		b.res.layer("serve.batch_size_mean", h.Sum/float64(h.Count))
	}
	if h, ok := rep.Histograms[serve.MetricRequestSeconds]; ok {
		b.res.layer("serve.server_p99_ms", h.Quantile(0.99)*1e3)
	}
}
