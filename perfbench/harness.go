package main

import (
	"runtime"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest timed reps a measured phase runs, however short.
const minReps = 3

// setupMedian runs set-up n times, keeping the last state, and returns the
// median set-up time in seconds. Each earlier state is dropped (and closed,
// if it has a close method) before the next set-up, so that two never
// coexist.
func setupMedian[T any](n int, setup func() (T, error)) (T, float64, error) {
	var st T
	var times []float64
	for i := 0; i < max(n, 1); i++ {
		var zero T
		if c, ok := any(st).(interface{ close() }); ok && i > 0 {
			c.close()
		}
		st = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, median(times), nil
}

// settle collects the garbage earlier reps and the benchmark's own
// preparation left, so that its collection does not land inside the next
// timed op.
func settle() { runtime.GC() }

// repeat calls rep until d has passed and at least minReps calls were made.
// rep returns the duration it timed; the time rep spends outside its timer
// (fresh stores, checks) counts against d too.
func repeat(d time.Duration, rep func() (time.Duration, error)) ([]float64, error) {
	var times []float64
	deadline := time.Now().Add(d)
	for len(times) < minReps || time.Now().Before(deadline) {
		t, err := rep()
		if err != nil {
			return times, err
		}
		times = append(times, ms(t))
	}
	return times, nil
}

// overhead reports the traced run's cost: how much slower its traced reps
// ran than its untraced reps, in percent of the untraced median.
func overhead(r *report, untraced, traced []float64) {
	if base := median(untraced); base > 0 {
		r.set("trace.overhead_pct", 100*(median(traced)-base)/base)
	}
}

// batchE2E sets the end-to-end metrics a batch workload shares: the median
// and tail of its timed operation, its headline throughput, set-up time,
// accuracy and peak memory.
func batchE2E(r *report, opMS, readsPerS []float64, setupS, accuracy float64) {
	t, pct := tail(opMS)
	r.setE2E("setup_s", setupS, "s")
	r.setE2E("reads_per_s", median(readsPerS), "reads/s")
	r.setE2E("p50_ms", median(opMS), "ms")
	r.setE2E("tail_ms", t, "ms")
	r.setE2E("accuracy", accuracy, "ratio")
	r.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	r.note("tail_ms: %s of %d ops (p95 needs 200 ops, p90 needs 100)", pct, len(opMS))
	r.note("reps: op ms %s", fmtMS(opMS))
}

// fmtMS formats op times in run order for the record.
func fmtMS(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}
