package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile interpolates linearly between the two nearest ranks of an
// ascending slice; p is in [0,1]. An empty slice gives 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	if lo >= len(asc)-1 {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 {
	asc := sorted(xs)
	return percentile(asc, 0.75) - percentile(asc, 0.25)
}

// tail reports percentile p only when at least ten samples lie beyond
// it; with fewer the percentile is one or two outliers, not a tail, and
// tail returns 0.
func tail(asc []float64, p float64) float64 {
	if beyond := len(asc) - int(math.Round(p*float64(len(asc)))); beyond < 10 {
		return 0
	}
	return percentile(asc, p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when the base was not measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
