package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the machine a result was measured on. Fields that the
// host does not expose stay empty.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Governor   string  `json:"cpu_governor,omitempty"`
	MHz        float64 `json:"cpu_mhz,omitempty"`
}

// readHost collects hostInfo. The CPU model and clock come from
// /proc/cpuinfo and the governor and current frequency from cpufreq
// in /sys; each is best effort.
func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch {
			case k == "model name" && h.CPU == "":
				h.CPU = v
			case k == "cpu MHz" && h.MHz == 0:
				h.MHz, _ = strconv.ParseFloat(v, 64) // unparsable: left unknown
			}
		}
		f.Close()
	}
	const cpufreq = "/sys/devices/system/cpu/cpu0/cpufreq/"
	if b, err := os.ReadFile(cpufreq + "scaling_governor"); err == nil {
		h.Governor = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(cpufreq + "scaling_cur_freq"); err == nil {
		if khz, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64); err == nil {
			h.MHz = khz / 1000
		}
	}
	return h
}

// maxRSSMB is the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
