package main

import "testing"

// TestQuartiles pins quartiles to Python's statistics.quantiles(data, n=4),
// which the acceptance of a benchmark's spreads is computed with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		sorted      []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1.25, 2, 3.5, 5.5, 7.75, 9}, 1.8125, 4.5, 8.0625},
	} {
		q1, q3 := quartiles(c.sorted)
		if q1 != c.q1 || q3 != c.q3 || median(c.sorted) != c.med {
			t.Errorf("%v: quartiles %v..%v median %v, want %v..%v median %v",
				c.sorted, q1, q3, median(c.sorted), c.q1, c.q3, c.med)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	verdict := func(old, cur []float64) string {
		o, c := summarize(old), summarize(cur)
		wins, pairs := pairWins(old, cur, lower.Better)
		return judge(lower, old, cur, o, c, wins, pairs)
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	if v := verdict(base, base); v != "no worse" {
		t.Errorf("same runs: %s", v)
	}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, x := range base {
		faster[i], slower[i] = x*0.8, x*1.2
	}
	if v := verdict(base, faster); v != "improved" {
		t.Errorf("20%% faster: %s", v)
	}
	if v := verdict(base, slower); v != "regressed" {
		t.Errorf("20%% slower: %s", v)
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if v := verdict(noisy, base); v != "unresolved" {
		t.Errorf("noisy baseline: %s", v)
	}
}
