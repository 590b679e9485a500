package vec_test

import (
	"strings"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// The naive oracle: the SQL meaning of each local operator, read off one
// row at a time. It is sequential on purpose, with one evaluator, one
// pass and no worker spans or partial merges, so that it shares none of
// the kernels' partitioning. diff_test.go and fuzz_test.go check the
// kernels against it at several worker counts.

// table is the oracle's relation: typed rows under column names.
type table struct {
	cols []string
	rows [][]value.Value
}

// typed types CSV cells with value.FromCSV, the engine's decode rule.
func typed(cols []string, srows [][]string) table {
	t := table{cols: cols, rows: make([][]value.Value, len(srows))}
	for i, sr := range srows {
		t.rows[i] = make([]value.Value, len(sr))
		for j, s := range sr {
			t.rows[i][j] = value.FromCSV(s)
		}
	}
	return t
}

// rowEnv resolves a column to its first case-insensitive match.
type rowEnv struct {
	cols []string
	row  []value.Value
}

func (e rowEnv) Lookup(_, name string) (value.Value, bool) {
	for j, c := range e.cols {
		if strings.EqualFold(c, name) {
			return e.row[j], true
		}
	}
	return value.Null(), false
}

func (t table) env(i int) expr.Env { return rowEnv{t.cols, t.rows[i]} }

// oracleFilter returns the indexes of the rows pred keeps, ascending.
func oracleFilter(t table, pred sqlparse.Expr) ([]int, error) {
	ev := expr.New()
	var kept []int
	for i := range t.rows {
		ok, err := ev.EvalBool(pred, t.env(i))
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, i)
		}
	}
	return kept, nil
}

// itemName is an output column's name: its alias, its bare column name,
// or the item's SQL text.
func itemName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*sqlparse.Column); ok {
		return c.Name
	}
	return it.Expr.String()
}

// oracleProject evaluates sel's items over every row; * expands to all
// columns.
func oracleProject(t table, sel *sqlparse.Select) ([]string, [][]value.Value, error) {
	var cols []string
	for _, it := range sel.Items {
		if _, isStar := it.Expr.(*sqlparse.Star); isStar {
			cols = append(cols, t.cols...)
		} else {
			cols = append(cols, itemName(it))
		}
	}
	ev := expr.New()
	out := make([][]value.Value, len(t.rows))
	for i, row := range t.rows {
		for _, it := range sel.Items {
			if _, isStar := it.Expr.(*sqlparse.Star); isStar {
				out[i] = append(out[i], row...)
				continue
			}
			v, err := ev.Eval(it.Expr, t.env(i))
			if err != nil {
				return nil, nil, err
			}
			out[i] = append(out[i], v)
		}
	}
	return cols, out, nil
}

// keyEnv answers a group's key columns during finalization.
type keyEnv struct {
	keys []sqlparse.Expr
	vals []value.Value
}

func (e keyEnv) Lookup(_, name string) (value.Value, bool) {
	for i, k := range e.keys {
		if c, ok := k.(*sqlparse.Column); ok && strings.EqualFold(c.Name, name) {
			return e.vals[i], true
		}
	}
	return value.Null(), false
}

// oracleGroupBy groups rows by the rendered values of sel's GROUP BY
// expressions and evaluates sel's items per group. Groups come out in the
// order their first row appears.
func oracleGroupBy(t table, sel *sqlparse.Select) ([]string, [][]value.Value, error) {
	items := make([]sqlparse.Expr, len(sel.Items))
	cols := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		items[i] = it.Expr
		cols[i] = itemName(it)
	}
	type group struct {
		vals []value.Value
		agg  *expr.AggRunner
	}
	ev := expr.New()
	groups := map[string]*group{}
	var order []*group
	for i := range t.rows {
		env := t.env(i)
		vals := make([]value.Value, len(sel.GroupBy))
		var key strings.Builder
		for j, g := range sel.GroupBy {
			v, err := ev.Eval(g, env)
			if err != nil {
				return nil, nil, err
			}
			vals[j] = v
			key.WriteString(v.String() + "\x00")
		}
		g, ok := groups[key.String()]
		if !ok {
			g = &group{vals: vals, agg: expr.NewAggRunner(ev, items)}
			groups[key.String()] = g
			order = append(order, g)
		}
		if err := g.agg.Add(env); err != nil {
			return nil, nil, err
		}
	}
	out := make([][]value.Value, len(order))
	for i, g := range order {
		for _, it := range items {
			v, err := g.agg.Final(it, keyEnv{sel.GroupBy, g.vals})
			if err != nil {
				return nil, nil, err
			}
			out[i] = append(out[i], v)
		}
	}
	return cols, out, nil
}

// oracleJoin pairs every probe row with every build row whose key is
// equal and not NULL: probe rows in order, and for each its build rows in
// order.
func oracleJoin(build, probe []value.Value) (bi, pi []int) {
	for p, pk := range probe {
		for b, bk := range build {
			if value.Equal(bk, pk) {
				bi, pi = append(bi, b), append(pi, p)
			}
		}
	}
	return bi, pi
}

// column returns column c of every row.
func (t table) column(c int) []value.Value {
	out := make([]value.Value, len(t.rows))
	for i, row := range t.rows {
		out[i] = row[c]
	}
	return out
}
