package main

import (
	"slices"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported as valid: a p90 needs at least 100 samples.
const minBeyond = 10

// percentile90 is the op_p90_ms rule: the nearest-rank 90th percentile
// (the smallest sample with at least 90% of all samples at or below it),
// the number of samples beyond its rank, and whether at least minBeyond
// lie beyond it. Integer arithmetic keeps the rank exact.
func percentile90(samples []float64) (v float64, beyond int, valid bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := (9*n + 9) / 10 // ceil(0.9 n), 1-based
	return sorted[rank-1], n - rank, n-rank >= minBeyond
}

// median is the middle sample, or the mean of the two middle samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// rusage returns the process's user+sys CPU time and its peak resident
// set size in bytes.
func rusage() (cpu time.Duration, maxRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss << 10 // Linux reports kilobytes
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	cpu, _ := rusage()
	return cpu
}
