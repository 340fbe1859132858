// Command perfbench is the repository's benchmark: one process that
// builds its inputs from a seed, runs one workload against the SEI
// simulator's packages, checks the outputs and prints the metrics.
//
//	go build -o perfbench . && ./perfbench -workload offline-eval -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with
// instrumentation off; with -trace 1 it attaches an obs.Recorder
// through the packages' Instrument/Obs hooks, records spans around
// each layer call and reports the per-layer metrics. The last line of
// standard output is the result object; README.md describes the
// workloads and every metric.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sei/internal/obs"
)

// bench is one run's configuration and shared state.
type bench struct {
	workload string
	seed     int64
	window   time.Duration // the measured time budget (-seconds)
	traced   bool
	rec      *obs.Recorder // non-nil only when traced
	workers  int
	rng      *rand.Rand // input generator, seeded by -seed
	res      *result
}

// outDir receives the detail report and the spans, relative to the
// directory the benchmark runs in.
const outDir = ".bench_out"

var workloads = map[string]func(*bench) error{
	"offline-eval":   runOffline,
	"noisy-campaign": runNoisy,
	"calibrate":      runCalibrate,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "offline-eval | noisy-campaign | calibrate")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Float64("seconds", 10, "measured time budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		workers:  runtime.GOMAXPROCS(0),
		rng:      rand.New(rand.NewSource(*seed)),
		res:      newResult(*workload, *seed, *trace == 1),
	}
	if b.workers > runtime.NumCPU() {
		b.workers = runtime.NumCPU()
	}
	if b.traced {
		b.rec = obs.New()
	}
	if err := fn(b); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	b.res.e2e("max_rss_mb", measure{Value: maxRSSMB(), Stat: "peak", Samples: 1})
	if b.traced {
		if err := b.writeSpans(outDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		}
	}
	return b.res.finish(os.Stdout, outDir)
}

// share is a fraction of the measured window.
func (b *bench) share(f float64) time.Duration {
	return time.Duration(f * float64(b.window))
}
