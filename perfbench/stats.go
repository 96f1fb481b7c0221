package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailBeyond is the number of samples latency_tail_ms keeps beyond its
// percentile. Ten is the least an estimate needs; twenty cut the
// same-seed spread of xmark-join's tail from 5.1% to 1.8% (sd over five
// alternated runs each).
const tailBeyond = 20

// samples is a list of durations in milliseconds.
type samples []float64

// percentile is the nearest-rank percentile p (0..100) of s.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	rank := int(math.Ceil(p / 100 * float64(len(c))))
	if rank < 1 {
		rank = 1
	}
	return c[rank-1]
}

func (s samples) median() float64 { return s.percentile(50) }

// beyond is the number of samples above percentile p of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// geomean is the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resetPeakRSS returns the heap's free pages to the kernel and resets
// the process's resident high-water mark to its current resident set,
// so that peakRSSMB covers only what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MiB
// since the last resetPeakRSS, as the kernel accounts it: heap, stacks
// and resident pages of mapped store files.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kib, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
