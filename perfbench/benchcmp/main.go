// Command benchcmp compares two sets of perfbench runs, in the style of
// benchstat, using only the standard library.
//
//	go run ./benchcmp -bench ../BENCHMARK.json OLD_DIR NEW_DIR
//	go run ./benchcmp -bench ../BENCHMARK.json DIR        # one set: spreads only
//
// A set is a directory with one subdirectory per workload; each .json file
// in it is one run's standard output (collect.sh writes this layout), and the
// last line is the run's JSON result. Runs are paired in file-name order.
//
// For every workload and metric it prints each set's median and quartiles
// (Python's statistics.quantiles, exclusive method) and, for metrics with
// a bound, a verdict:
//
//   - unresolved: a set's quartile spread, as a share of its median,
//     exceeds the bound, and not every new run beats every old run;
//   - improved: the new set wins at least 9 in 10 pairs (ties count for
//     neither) and the medians differ by more than the old set's
//     quartile spread;
//   - regressed: the new median is worse than the old by more than the
//     bound;
//   - no worse: otherwise.
//
// It exits 1 when any run failed, any verdict is regressed or unresolved,
// or, for one set, any spread exceeds its bound.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and bounds")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-bench BENCHMARK.json] OLD_DIR [NEW_DIR]")
		os.Exit(2)
	}
	bad, err := compare(*benchPath, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

func compare(benchPath string, dirs []string) (bad bool, err error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	defer tw.Flush()
	if len(dirs) == 1 {
		fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound\tverdict")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tunit\told median\told q1..q3\tnew median\tnew q1..q3\tdelta\twins\tverdict")
	}
	for _, w := range b.Workloads {
		sets := make([][]result, len(dirs))
		for i, d := range dirs {
			if sets[i], err = readRuns(filepath.Join(d, w.Name)); err != nil {
				return false, err
			}
			if len(sets[i]) == 0 {
				fmt.Fprintf(os.Stderr, "benchcmp: %s: no runs in %s\n", w.Name, d)
				bad = true
			}
			for _, r := range sets[i] {
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(os.Stderr, "benchcmp: %s: a run in %s failed %d of %d queries\n", w.Name, d, r.Failed, r.Attempted)
					bad = true
				}
			}
		}
		for _, group := range [][]metricSpec{b.EndToEnd, b.PerLayer} {
			for _, m := range group {
				vals := make([][]float64, len(sets))
				for i, runs := range sets {
					vals[i] = values(runs, m.Name)
				}
				if len(vals[0]) == 0 || len(vals[len(vals)-1]) == 0 {
					continue // a per-layer metric in an end-to-end set, or the reverse
				}
				if len(dirs) == 1 {
					s := summarize(vals[0])
					verdict := "-"
					if m.Bound > 0 {
						switch {
						case s.spread <= m.Bound/3:
							verdict = "steady"
						case s.spread <= m.Bound:
							verdict = "within bound"
						default:
							verdict = "too noisy"
							bad = true
						}
					}
					fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.3f\t%s\t%s\n",
						w.Name, m.Name, m.Unit, s.median, s.q1, s.q3, s.spread, boundText(m), verdict)
					continue
				}
				old, cur := summarize(vals[0]), summarize(vals[1])
				wins, pairs := pairWins(vals[0], vals[1], m.Better)
				verdict := judge(m, vals[0], vals[1], old, cur, wins, pairs)
				if verdict == "regressed" || verdict == "unresolved" {
					bad = true
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%+.1f%%\t%d/%d\t%s\n",
					w.Name, m.Name, m.Unit, old.median, old.q1, old.q3, cur.median, cur.q1, cur.q3,
					100*div(cur.median-old.median, old.median), wins, pairs, verdict)
			}
		}
	}
	return bad, nil
}

func boundText(m metricSpec) string {
	if m.Bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", m.Bound)
}

// readRuns parses the last line of every .json file in dir, in name order.
func readRuns(dir string) ([]result, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil // workload not collected in this set
	}
	if err != nil {
		return nil, err
	}
	var out []result
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		last, err := lastLine(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func lastLine(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	last := ""
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last, sc.Err()
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type summary struct{ median, q1, q3, spread float64 }

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	med := median(s)
	return summary{med, q1, q3, math.Abs(div(q3-q1, med))}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(data, n=4) (the exclusive
// method) for the first and third quartile; one value is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// better reports whether a beats b in the metric's direction.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// pairWins counts the pairs (in run order) in which the new run beats the
// old one; ties count for neither side.
func pairWins(old, cur []float64, dir string) (wins, pairs int) {
	pairs = min(len(old), len(cur))
	for i := 0; i < pairs; i++ {
		if better(cur[i], old[i], dir) {
			wins++
		}
	}
	return wins, pairs
}

func judge(m metricSpec, old, cur []float64, o, c summary, wins, pairs int) string {
	if m.Bound == 0 {
		return "-"
	}
	allBetter := true
	for _, x := range cur {
		for _, y := range old {
			allBetter = allBetter && better(x, y, m.Better)
		}
	}
	worse := div(c.median-o.median, o.median)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case (o.spread > m.Bound || c.spread > m.Bound) && !allBetter:
		return "unresolved"
	case 10*wins >= 9*pairs && math.Abs(c.median-o.median) > o.q3-o.q1 && worse < 0:
		return "improved"
	case worse > m.Bound:
		return "regressed"
	}
	return "no worse"
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
