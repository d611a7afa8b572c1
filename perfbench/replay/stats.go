package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted; 0 for none.
func quantile[T int32 | int64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), q)-1, 0)]
}

// rank is the nearest-rank position of the q-quantile among n samples,
// ceil(q*n), with a small tolerance for q*n that floating point puts just
// above a whole number.
func rank(n int, q float64) int {
	return min(int(math.Ceil(q*float64(n)-1e-9)), n)
}

// tail returns the highest percentile of the ladder 99, 99.9, 99.99, ...
// that leaves at least ten samples beyond it, with its label; ok is false
// when even p99 has fewer than ten.
func tail[T int32 | int64](sorted []T) (label string, v T, ok bool) {
	n := len(sorted)
	for q, digits := 0.99, 0; n-rank(n, q) >= 10; q, digits = 1-(1-q)/10, digits+1 {
		label = "p" + strconv.FormatFloat(q*100, 'f', digits, 64)
		v, ok = quantile(sorted, q), true
	}
	return label, v, ok
}

// readSteal returns the host's cumulative CPU steal ticks from the
// aggregate line of /proc/stat, 0 where unavailable.
func readSteal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

func fmtCounters(c counters) string {
	return fmt.Sprintf("packets=%d emc_hits=%d emc_misses=%d emc_evictions=%d megaflow_hits=%d "+
		"slow_path=%d installs=%d masks=%d publishes=%d", c.Packets, c.EMCHits, c.EMCMisses,
		c.EMCEvictions, c.MegaflowHits, c.SlowPath, c.Installs, c.Masks, c.Publishes)
}
