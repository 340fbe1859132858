package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one reported metric: its name in the result line and
// its unit. BENCHMARK.json lists the same names (names_test.go).
type metricDef struct{ Name, Unit string }

// endToEnd are the untraced metrics every workload reports. What each
// one measures depends on the workload (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"pj_per_image", "pJ"},
	{"error_rate", "ratio"},
}

// perLayer are the traced metrics every workload reports; a layer the
// workload leaves idle reads 0.
var perLayer = []metricDef{
	{"mnist.synthetic_s", "s"},
	{"nn.train_s", "s"},
	{"nn.predict_batch_ns_per_image", "ns"},
	{"nn.sliced_groups", "count"},
	{"nn.sliced_fallbacks", "count"},
	{"par.chunks", "count"},
	{"seicore.predict_ns", "ns"},
	{"seicore.predict_allocs_per_image", "count"},
	{"seicore.noisy_ns_per_image", "ns"},
	{"seicore.noise_draws_per_image", "count"},
	{"seicore.noisy_allocs_per_image", "count"},
	{"seicore.build_s", "s"},
	{"quant.search_s", "s"},
	{"quant.search_allocs", "count"},
	{"quant.search_alloc_mb", "MB"},
	{"quant.threshold_candidates", "count"},
	{"quant.remainder_skip_ratio", "ratio"},
	{"quant.recalibrate_s", "s"},
	{"quant.refine_s", "s"},
	{"quant.refine_candidates", "count"},
	{"homog.orders_s", "s"},
	{"seicore.calibrate_s", "s"},
	{"seicore.calib_candidates", "count"},
	{"hw.mvm_ops_per_image", "count"},
	{"hw.sa_comparisons_per_image", "count"},
	{"hw.active_inputs_per_image", "count"},
	{"hw.column_activations_per_image", "count"},
	{"hw.orpool_reductions_per_image", "count"},
	{"power.sa_pj_per_image", "pJ"},
	{"power.rram_pj_per_image", "pJ"},
	{"power.driver_pj_per_image", "pJ"},
	{"power.digital_pj_per_image", "pJ"},
	{"arch.static_pj_per_image", "pJ"},
	{"serve.batch_size_mean", "count"},
	{"serve.batches", "count"},
	{"serve.queue_full", "count"},
	{"serve.deadline_shed", "count"},
	{"serve.flush_ms", "ms"},
	{"serve.server_p99_ms", "ms"},
	{"serve.slo_capacity_rps", "1/s"},
	{"serve.heavy_p50_ms", "ms"},
	{"serve.heavy_tail_ms", "ms"},
	{"load.late_p99_ms", "ms"},
	{"load.offered_rps", "1/s"},
	{"load.achieved_rps", "1/s"},
	{"obs.overhead_pct", "%"},
}

// measure is one reported value with how it was reduced.
type measure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Stat    string  `json:"stat,omitempty"` // "median", "p99", "value", ...
	Samples int     `json:"samples,omitempty"`
}

// check is one output-correctness check: how many outputs it compared
// and how many disagreed. A refusal check counts operations the
// program declined (a non-200 response): they are failed operations,
// not wrong outputs.
type check struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Refusal   bool   `json:"refusal,omitempty"`
}

// result gathers everything one run reports.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Host     hostInfo           `json:"host"`
	EndToEnd map[string]measure `json:"end_to_end"`
	Layers   map[string]float64 `json:"per_layer"`
	// Named holds the workload's figures under the names a user of
	// the workload knows them by (images_per_s, calibrate_s, ...).
	Named     map[string]measure   `json:"named"`
	Checks    []check              `json:"checks"`
	SelfTimes map[string]float64   `json:"self_seconds,omitempty"`
	Phases    []map[string]float64 `json:"phases,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Traced: traced, Host: readHost(),
		EndToEnd: map[string]measure{}, Layers: map[string]float64{}, Named: map[string]measure{},
	}
}

// e2e records an end-to-end metric.
func (r *result) e2e(name string, m measure) {
	m.Unit = unitOf(endToEnd, name)
	r.EndToEnd[name] = m
}

// layer records a per-layer metric.
func (r *result) layer(name string, v float64) {
	unitOf(perLayer, name) // panics on a name missing from the list
	r.Layers[name] = v
}

// named records a workload-named figure.
func (r *result) named(name, unit string, m measure) {
	m.Unit = unit
	r.Named[name] = m
}

// timing records a latency distribution (seconds) as the p50_ms and
// tail_ms end-to-end metrics.
func (r *result) timing(d dist) {
	r.e2e("p50_ms", measure{Value: d.P50 * 1e3, Stat: "median input, fastest pass", Samples: d.N})
	r.e2e("tail_ms", measure{Value: d.Tail * 1e3, Stat: percentileName(d.TailQ), Samples: d.N})
}

// addCheck records a correctness check.
func (r *result) addCheck(name string, attempted, failed int) {
	r.Checks = append(r.Checks, check{Name: name, Attempted: attempted, Failed: failed})
}

// addRefusals records how many of the attempted operations the program
// refused.
func (r *result) addRefusals(name string, attempted, refused int) {
	r.Checks = append(r.Checks, check{Name: name, Attempted: attempted, Failed: refused, Refusal: true})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

func percentileName(q float64) string {
	if q >= 1 {
		return "max"
	}
	return fmt.Sprintf("p%g", q*100)
}

// line is the final result object the contract asks for.
type line struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

// finish fills idle per-layer metrics with 0, prints the human-readable
// report and the detail file, and prints the result line last. It
// returns an error when a metric the mode must report is missing.
func (r *result) finish(w io.Writer, outDir string) error {
	for _, d := range perLayer {
		if _, ok := r.Layers[d.Name]; !ok {
			r.Layers[d.Name] = 0
		}
	}
	out := line{Metrics: map[string]measure{}}
	wrong := 0
	for _, c := range r.Checks {
		out.Failed += c.Failed
		if c.Refusal {
			// The refused operations; the answered ones are counted by
			// the label check beside this one.
			out.Attempted += c.Failed
			continue
		}
		out.Attempted += c.Attempted
		wrong += c.Failed
	}
	out.Correct = wrong == 0 && out.Attempted > 0
	if r.Traced {
		for _, d := range perLayer {
			out.Metrics[d.Name] = measure{Value: r.Layers[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			m, ok := r.EndToEnd[d.Name]
			if !ok {
				return fmt.Errorf("workload %s did not report %s", r.Workload, d.Name)
			}
			out.Metrics[d.Name] = measure{Value: m.Value, Unit: m.Unit}
		}
	}
	r.print(w)
	if err := r.writeDetail(outDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: detail file: %v\n", err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// print writes the human-readable report: host, every metric with its
// unit and sample count, and every check.
func (r *result) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v\n", r.Workload, r.Seed, r.Traced)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s governor=%q mhz=%.0f\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Governor, h.MHz)
	printMeasures(w, "end-to-end", r.EndToEnd)
	printMeasures(w, "named", r.Named)
	if r.Traced {
		fmt.Fprintln(w, "per-layer:")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, r.Layers[d.Name], d.Unit)
		}
		if len(r.SelfTimes) > 0 {
			fmt.Fprintln(w, "span self time:")
			for _, k := range sortedKeys(r.SelfTimes) {
				fmt.Fprintf(w, "  %-36s %12.6f s\n", k, r.SelfTimes[k])
			}
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "check %-36s %8d compared %6d failed\n", c.Name, c.Attempted, c.Failed)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func printMeasures(w io.Writer, title string, ms map[string]measure) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range sortedKeys(ms) {
		m := ms[k]
		fmt.Fprintf(w, "  %-24s %16.6g %-6s %-7s n=%d\n", k, m.Value, m.Unit, m.Stat, m.Samples)
	}
}

func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeDetail saves the whole result, host metadata included, as JSON
// under outDir.
func (r *result) writeDetail(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, btoi(r.Traced))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
