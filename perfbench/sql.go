package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// The five TPC-H queries the SQL front end answers (the paper's Fig. 10
// set), as templates over their TPC-H substitution parameters. Binding 0
// of every template reproduces the golden SQL in internal/tpch exactly,
// so the golden-answer check also pins the template text.

const (
	q1SQL = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, " +
		"SUM(l_extendedprice) AS sum_base_price, " +
		"SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, " +
		"SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, " +
		"AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, " +
		"AVG(l_discount) AS avg_disc, COUNT(*) AS count_order " +
		"FROM lineitem WHERE l_shipdate <= '%s' " +
		"GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
	q3SQL = "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, " +
		"o_orderdate, o_shippriority " +
		"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey " +
		"JOIN lineitem l ON o.o_orderkey = l.l_orderkey " +
		"WHERE c.c_mktsegment = '%s' AND o.o_orderdate < '%s' AND l.l_shipdate > '%s' " +
		"GROUP BY l_orderkey, o_orderdate, o_shippriority " +
		"ORDER BY revenue DESC, o_orderdate LIMIT 10"
	q6SQL = "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem " +
		"WHERE l_shipdate >= '%s' AND l_shipdate < '%s' " +
		"AND l_discount BETWEEN %.2f AND %.2f AND l_quantity < %d"
	q14SQL = "SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) " +
		"/ SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue " +
		"FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipdate >= '%s' AND l.l_shipdate < '%s'"
	q19SQL = "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue " +
		"FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipmode IN ('AIR', 'AIR REG') AND l.l_shipinstruct = 'DELIVER IN PERSON' " +
		"AND l.l_quantity BETWEEN %d AND %d " +
		"AND ((p.p_brand = 'Brand#%d' AND l.l_quantity BETWEEN %d AND %d) " +
		"OR (p.p_brand = 'Brand#%d' AND l.l_quantity BETWEEN %d AND %d) " +
		"OR (p.p_brand = 'Brand#%d' AND l.l_quantity BETWEEN %d AND %d))"
)

// template is one query with its whole binding domain rendered.
type template struct {
	name     string
	bindings []string // bindings[0] is the golden query
}

func date(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 0, 0, 0, 0, time.UTC) }

func day(t time.Time) string { return t.Format("2006-01-02") }

// templates enumerates each query's substitution-parameter domain as the
// TPC-H specification draws it (Q19 is sampled down to 200 bindings with
// a fixed seed). The domains are fixed so that committed answer digests
// cover every SQL string any seed can produce.
func templates() []template {
	var q1 []string
	for _, delta := range append([]int{90}, rangeExcept(60, 120, 90)...) {
		q1 = append(q1, fmt.Sprintf(q1SQL, day(date(1998, 12, 1).AddDate(0, 0, -delta))))
	}

	var q3 []string
	segments := []string{"BUILDING", "AUTOMOBILE", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	for _, seg := range segments {
		for _, d := range append([]int{15}, rangeExcept(1, 31, 15)...) {
			ds := day(date(1995, 3, d))
			q3 = append(q3, fmt.Sprintf(q3SQL, seg, ds, ds))
		}
	}

	var q6 []string
	for _, y := range append([]int{1994}, rangeExcept(1993, 1997, 1994)...) {
		for _, disc := range append([]int{6}, rangeExcept(2, 9, 6)...) {
			for _, qty := range []int{24, 25} {
				d := float64(disc) / 100
				q6 = append(q6, fmt.Sprintf(q6SQL, day(date(y, 1, 1)), day(date(y+1, 1, 1)), d-0.01, d+0.01, qty))
			}
		}
	}

	var q14 []string
	months := []time.Time{date(1995, 9, 1)}
	for m := date(1993, 1, 1); m.Year() < 1998; m = m.AddDate(0, 1, 0) {
		if !m.Equal(months[0]) {
			months = append(months, m)
		}
	}
	for _, m := range months {
		q14 = append(q14, fmt.Sprintf(q14SQL, day(m), day(m.AddDate(0, 1, 0))))
	}

	type q19Binding struct{ q1, q2, q3, b1, b2, b3 int }
	seen := map[q19Binding]bool{}
	rng := rand.New(rand.NewSource(19))
	brand := func() int { return 10*(1+rng.Intn(5)) + 1 + rng.Intn(5) }
	var q19 []string
	for b := (q19Binding{1, 10, 20, 12, 23, 34}); len(q19) < 200; b = (q19Binding{
		1 + rng.Intn(10), 10 + rng.Intn(11), 20 + rng.Intn(11), brand(), brand(), brand(),
	}) {
		if seen[b] {
			continue
		}
		seen[b] = true
		q19 = append(q19, fmt.Sprintf(q19SQL, b.q1, b.q3+10,
			b.b1, b.q1, b.q1+10, b.b2, b.q2, b.q2+10, b.b3, b.q3, b.q3+10))
	}

	return []template{{"q1", q1}, {"q3", q3}, {"q6", q6}, {"q14", q14}, {"q19", q19}}
}

// rangeExcept lists lo..hi without skip.
func rangeExcept(lo, hi, skip int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		if v != skip {
			out = append(out, v)
		}
	}
	return out
}

// goldenQueries returns the five golden SQL strings, in template order.
func goldenQueries(ts []template) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.bindings[0]
	}
	return out
}

// zipfExponent and the binding domains above set serve-zipf's repeat
// structure: the head of every template's distribution is hot enough to
// live in the 64 MiB result cache while the whole domain does not fit.
const zipfExponent = 1.1

// zipfStream draws serve-zipf queries for one client in rounds: each
// round sends every template once, in a seeded order, with a
// Zipf-distributed binding rank, so each run holds the same template mix.
// The rank-to-binding permutation comes from the run seed alone, so every
// client of a run shares one hot set; the draws come from the seed and
// the client number.
type zipfStream struct {
	rng   *rand.Rand
	ts    []template
	perms [][]int
	ranks []*stratifiedZipf
}

func newZipfStream(ts []template, seed int64, client int) *zipfStream {
	permRng := rand.New(rand.NewSource(seed))
	rng := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	z := &zipfStream{rng: rng, ts: ts}
	for _, t := range ts {
		z.perms = append(z.perms, permRng.Perm(len(t.bindings)))
		z.ranks = append(z.ranks, newStratifiedZipf(rng, len(t.bindings), zipfExponent))
	}
	return z
}

func (z *zipfStream) next() []string {
	out := make([]string, len(z.ts))
	for i, t := range z.rng.Perm(len(z.ts)) {
		out[i] = z.ts[t].bindings[z.perms[t][z.ranks[t].next()]]
	}
	return out
}

// stratifiedZipf draws Zipf ranks by stratified sampling: every block of
// zipfStrata draws takes one uniform from each of zipfStrata equal slices
// of [0, 1), in random order, through the Zipf CDF. The draws stay random,
// but each block holds close to the exact Zipf share of head ranks, so
// the share of repeats (and with it the cache hit rate) varies far less
// from run to run than with independent draws.
type stratifiedZipf struct {
	rng    *rand.Rand
	cdf    []float64
	strata []int
}

const zipfStrata = 8

func newStratifiedZipf(rng *rand.Rand, n int, s float64) *stratifiedZipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &stratifiedZipf{rng: rng, cdf: cdf}
}

func (z *stratifiedZipf) next() int {
	if len(z.strata) == 0 {
		z.strata = z.rng.Perm(zipfStrata)
	}
	u := (float64(z.strata[0]) + z.rng.Float64()) / zipfStrata
	z.strata = z.strata[1:]
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// roundStream is tpch-cold's traffic: every round sends the five golden
// queries once, in a fresh seeded order, so each run holds the same mix.
type roundStream struct {
	rng    *rand.Rand
	golden []string
}

func (r *roundStream) next() []string {
	out := make([]string, len(r.golden))
	for i, j := range r.rng.Perm(len(r.golden)) {
		out[i] = r.golden[j]
	}
	return out
}

// lookupStream is point-lookup's traffic: equality lookups on uniformly
// drawn order keys, which the l_orderkey index serves.
type lookupStream struct {
	rng    *rand.Rand
	orders int
}

const lookupSQL = "SELECT * FROM lineitem WHERE l_orderkey = %d ORDER BY l_linenumber"

func (l *lookupStream) next() []string {
	return []string{fmt.Sprintf(lookupSQL, 1+l.rng.Intn(l.orders))}
}

// lookupCheckSQL answers a batch of lookups in one scan on the reference
// DB; checkLookups splits its rows back per key.
func lookupCheckSQL(keys []int) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprint(k)
	}
	return "SELECT * FROM lineitem WHERE l_orderkey IN (" + strings.Join(parts, ", ") +
		") ORDER BY l_orderkey, l_linenumber"
}
