package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the highest of p95, p90 and p50 that still has at least ten
// samples beyond it, and that percentile's name. A high percentile rests on
// few samples, so p95 and p90 use the Harrell-Davis estimator, a weighted
// mean of all order statistics, whose run-to-run spread is lower than that
// of one interpolated order statistic.
func tail(xs []float64) (float64, string) {
	n := float64(len(xs))
	switch {
	case n*0.05 >= 10:
		return harrellDavis(xs, 0.95), "p95"
	case n*0.10 >= 10:
		return harrellDavis(xs, 0.90), "p90"
	}
	return median(xs), "p50"
}

// harrellDavis estimates the q-quantile of xs as the mean of its order
// statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution.
func harrellDavis(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	est, prev := 0.0, 0.0
	for i, x := range s {
		cdf := betaInc(a, b, float64(i+1)/n)
		est += (cdf - prev) * x
		prev = cdf
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (betai/betacf).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-12 {
			break
		}
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM). Each
// workload runs in its own process, so one workload's peak never includes
// another's.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printHost records the host fingerprint: results compare only with results
// from the same host shape.
func printHost(r *report, cfg runConfig) {
	r.note("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	r.note("run: workload=%s seed=%d measure=%s trace=%v", r.workload, cfg.seed, cfg.measure, cfg.trace)
}
