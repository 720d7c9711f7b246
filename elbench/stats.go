package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the linearly interpolated q-quantile of xs (NaN when
// empty); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQ is the quantile every tail_ms reports, fixed so that a faster
// build is judged at the same quantile as a slower one.
const tailQ = 0.95

// spanTotals sums span durations by name over spans that start inside
// [from, to) relative to the tracer epoch.
func spanTotals(spans []obs.Span, from, to time.Duration) map[string]time.Duration {
	tot := map[string]time.Duration{}
	for _, sp := range spans {
		if sp.Start >= from && sp.Start < to {
			tot[sp.Name] += sp.Dur
		}
	}
	return tot
}
