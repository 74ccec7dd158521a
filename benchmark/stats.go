package main

import (
	"math"
	"sort"
)

// median is Python's statistics.median.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so a spread printed here is the number the
// acceptance procedure computes from the same values.
func quartiles(values []float64) (q1, q3 float64) {
	ld := len(values)
	if ld < 2 {
		m := median(values)
		return m, m
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// summary is a sample set reduced the way every report in this harness
// states a number: median, quartiles, and their distance as a share of
// the median.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"`
	Samples []float64 `json:"samples"`
}

func summarize(values []float64) summary {
	s := summary{Median: median(values), Samples: values}
	s.Q1, s.Q3 = quartiles(values)
	if s.Median != 0 {
		s.Spread = math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
	}
	return s
}

// percentileU32 returns the p-quantile of an ascending sample slice.
func percentileU32(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * p)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}
