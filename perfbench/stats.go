package main

import (
	"fmt"
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks (Hyndman–Fan type 7, numpy's
// default). It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidate percentiles reportTail chooses from,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// reportTail returns the highest candidate percentile that has at least
// ten samples beyond it in a sample of n — the tail a timing may be
// reported at without resting on a handful of outliers — or 0 when n is
// too small for even the median to qualify.
func reportTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// quartiles returns the first, second and third quartiles of xs with
// the same "exclusive" method Python's statistics.quantiles(xs, n=4)
// uses, so spreads computed here agree with any Python-side check. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], nil
}

// pairVerdict is the outcome of comparing paired runs of a parent and a
// change on one metric.
type pairVerdict struct {
	Pairs     int     `json:"pairs"`
	Wins      int     `json:"wins"`   // change strictly better than its paired parent run
	Losses    int     `json:"losses"` // change strictly worse
	ParentMed float64 `json:"parent_median"`
	ChangeMed float64 `json:"change_median"`
	ParentIQR float64 `json:"parent_iqr"`
	Gain      bool    `json:"gain"` // the pair-win rule holds
}

// pairWin applies the gain rule to paired runs (parent[i] and change[i]
// ran back to back): at least ten pairs, the change wins at least nine
// tenths of them (ties count for neither side), and the medians differ
// in the change's favour by more than the parent's own inter-quartile
// range.
func pairWin(parent, change []float64, higherBetter bool) (pairVerdict, error) {
	if len(parent) != len(change) {
		return pairVerdict{}, fmt.Errorf("unpaired samples: %d parent, %d change", len(parent), len(change))
	}
	v := pairVerdict{Pairs: len(parent)}
	if v.Pairs < 2 {
		return v, fmt.Errorf("need at least 2 pairs, have %d", v.Pairs)
	}
	for i := range parent {
		d := change[i] - parent[i]
		if !higherBetter {
			d = -d
		}
		switch {
		case d > 0:
			v.Wins++
		case d < 0:
			v.Losses++
		}
	}
	q1, q2, q3, err := quartiles(parent)
	if err != nil {
		return v, err
	}
	v.ParentMed, v.ParentIQR = q2, q3-q1
	v.ChangeMed = median(change)
	gap := v.ChangeMed - v.ParentMed
	if !higherBetter {
		gap = -gap
	}
	v.Gain = v.Pairs >= 10 && v.Wins*10 >= v.Pairs*9 && gap > v.ParentIQR
	return v, nil
}
