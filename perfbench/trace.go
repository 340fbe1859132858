package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"sei/internal/obs"
)

// span opens a span around a layer call and returns its End. A nil
// recorder (untraced runs and untraced phases) makes it a no-op.
// Spans are opened only from the driving goroutine.
func span(rec *obs.Recorder, name string) func() {
	return rec.StartSpan(name).End
}

// selfTimes sums each span name's self time: its duration minus the
// part its child spans cover.
func selfTimes(spans []obs.SpanReport, into map[string]float64) {
	for _, s := range spans {
		self := s.Seconds
		for _, c := range s.Children {
			self -= c.Seconds
		}
		into[s.Name] += self
		selfTimes(s.Children, into)
	}
}

// writeSpans records the span self times in the result and writes the
// recorder's report (spans, counters, histograms) under dir.
func (b *bench) writeSpans(dir string) error {
	rep := b.rec.Report(b.workload)
	b.res.SelfTimes = map[string]float64{}
	selfTimes(rep.Spans, b.res.SelfTimes)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.json", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.rec.WriteJSON(f, b.workload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocCounter measures heap allocations across a region.
type allocCounter struct{ mallocs, bytes uint64 }

func startAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

// since returns the allocations and bytes allocated since start.
func (a allocCounter) since() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - a.mallocs, ms.TotalAlloc - a.bytes
}
