package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// runtimeSample reads the runtime counters the traced run differences.
type runtimeSample struct {
	allocBytes            uint64
	gcCPU, totalCPU, idle float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idle:       s[3].Value.Float64(),
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// profiledPackages maps the package a function belongs to onto its
// cpu_share metric prefix; encoding and reflection together are the
// codec.
var profiledPackages = map[string]string{
	"bluegs/internal/sim":          "sim",
	"bluegs/internal/baseband":     "baseband",
	"bluegs/internal/piconet":      "piconet",
	"bluegs/internal/core":         "core",
	"bluegs/internal/poller":       "poller",
	"bluegs/internal/radio":        "radio",
	"bluegs/internal/traffic":      "traffic",
	"bluegs/internal/segmentation": "segmentation",
	"bluegs/internal/admission":    "admission",
	"bluegs/internal/scenario":     "scenario",
	"bluegs/internal/harness":      "harness",
	"bluegs/internal/fabric":       "fabric",
	"encoding/gob":                 "codec",
	"encoding/json":                "codec",
	"reflect":                      "codec",
}

// cpuShares runs `go tool pprof -top` on a CPU profile and returns each
// profiled package's share of all sampled self time.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(out)
}

// parseTop sums the flat column of `pprof -top -unit=ms` output per
// package.
func parseTop(out []byte) (map[string]float64, error) {
	shares := make(map[string]float64)
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := true
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if header {
			header = len(f) == 0 || f[0] != "flat"
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		total += flat
		if name, ok := profiledPackages[funcPackage(strings.Join(f[5:], " "))]; ok {
			shares[name] += flat
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// funcPackage returns the import path of a symbol such as
// "bluegs/internal/sim.(*Kernel).Run" or "encoding/gob.(*Decoder).Decode".
func funcPackage(fn string) string {
	// Type arguments and receivers may name other packages; the symbol's
	// own path ends before them.
	limit := strings.IndexAny(fn, "[(")
	if limit < 0 {
		limit = len(fn)
	}
	slash := strings.LastIndex(fn[:limit], "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
