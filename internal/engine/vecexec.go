package engine

import (
	"fmt"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/vec"
)

// The local operators. Each decodes the columns it reads into typed
// vectors and runs the internal/vec batched kernels. Results are
// deterministic at any worker count. A relation must be rectangular
// (every row as long as Cols); the engine's own decoders shape rows to
// the header, and a ragged relation built by hand is an error.

// referencedCols resolves every column the expressions reference against
// the relation (first-match, case-insensitive, as Relation.ColIndex) and
// returns the distinct column indices in first-seen order. Names that do
// not resolve are dropped: the kernels report them as lookup misses.
func referencedCols(rel *Relation, exprs []sqlparse.Expr) []int {
	seen := map[int]bool{}
	var keep []int
	for _, e := range exprs {
		for _, name := range sqlparse.Columns(e) {
			if j := rel.ColIndex(name); j >= 0 && !seen[j] {
				seen[j] = true
				keep = append(keep, j)
			}
		}
	}
	return keep
}

// FilterLocalN is FilterLocal partitioned across workers goroutines. Kept
// rows share the input's row slices; only the predicate's columns are
// decoded into vectors.
func FilterLocalN(rel *Relation, predicate string, workers int) (*Relation, error) {
	if predicate == "" {
		return rel, nil
	}
	pred, err := sqlparse.ParseExpr(predicate)
	if err != nil {
		return nil, fmt.Errorf("engine: bad predicate %q: %w", predicate, err)
	}
	b, err := vec.FromRowsProjected(rel.Cols, rel.Rows, referencedCols(rel, []sqlparse.Expr{pred}), workers)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	idx, err := vec.Filter(b, pred, workers)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: rel.Cols, Rows: make([]Row, len(idx))}
	for k, i := range idx {
		out.Rows[k] = rel.Rows[i]
	}
	return out, nil
}

// ProjectLocalN is ProjectLocal partitioned across workers goroutines.
func ProjectLocalN(rel *Relation, items string, workers int) (*Relation, error) {
	sel, err := sqlparse.Parse("SELECT " + items + " FROM t")
	if err != nil {
		return nil, fmt.Errorf("engine: bad projection %q: %w", items, err)
	}
	b, err := projectionBatch(rel, sel, workers)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	out, err := vec.Project(b, sel, workers)
	if err != nil {
		return nil, err
	}
	rel2 := &Relation{Cols: out.Cols, Rows: make([]Row, out.Len())}
	for i, r := range out.ToRows() {
		rel2.Rows[i] = r
	}
	return rel2, nil
}

// GroupByLocalN is GroupByLocal partitioned across workers goroutines.
// Groups come out in first-seen row order.
func GroupByLocalN(rel *Relation, groupBy, items string, workers int) (*Relation, error) {
	sel, err := sqlparse.Parse("SELECT " + items + " FROM t GROUP BY " + groupBy)
	if err != nil {
		return nil, fmt.Errorf("engine: bad group-by: %w", err)
	}
	exprs := make([]sqlparse.Expr, 0, len(sel.Items)+len(sel.GroupBy))
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, sel.GroupBy...)
	b, err := vec.FromRowsProjected(rel.Cols, rel.Rows, referencedCols(rel, exprs), workers)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	cols, rows, err := vec.GroupBy(b, sel, workers)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: cols, Rows: make([]Row, len(rows))}
	for i, r := range rows {
		out.Rows[i] = r
	}
	return out, nil
}

// AggregateLocalN is AggregateLocal partitioned across workers
// goroutines: a group-by on a constant key, with one row synthesized for
// empty input.
func AggregateLocalN(rel *Relation, items string, workers int) (*Relation, error) {
	out, err := GroupByLocalN(rel, "'all'", "'all' AS g, "+items, workers)
	if err != nil {
		return nil, err
	}
	if len(out.Rows) == 0 {
		return emptyAggregateRow(rel.Cols, items)
	}
	trimmed := &Relation{Cols: out.Cols[1:]}
	for _, r := range out.Rows {
		trimmed.Rows = append(trimmed.Rows, r[1:])
	}
	return trimmed, nil
}

// HashJoinLocalN is HashJoinLocal partitioned across workers goroutines:
// the key columns decode to vectors for the build/probe kernel, and joined
// rows concatenate the original row slices in probe-row order.
func HashJoinLocalN(left, right *Relation, leftKey, rightKey string, workers int) (*Relation, error) {
	li, ri := left.ColIndex(leftKey), right.ColIndex(rightKey)
	if li < 0 {
		return nil, fmt.Errorf("engine: join key %q not in left relation %v", leftKey, left.Cols)
	}
	if ri < 0 {
		return nil, fmt.Errorf("engine: join key %q not in right relation %v", rightKey, right.Cols)
	}
	lb, err := vec.FromRowsProjected(left.Cols, left.Rows, []int{li}, workers)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	rb, err := vec.FromRowsProjected(right.Cols, right.Rows, []int{ri}, workers)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	bi, pi := vec.JoinPairs(lb.Vecs[0], rb.Vecs[0], workers)
	out := &Relation{
		Cols: append(append([]string{}, left.Cols...), right.Cols...),
		Rows: make([]Row, len(bi)),
	}
	// Materializing the joined rows is pure memory traffic with a fixed
	// output slot per pair, so it parallelizes over contiguous spans.
	runSpans(rowSpans(len(bi), workers), func(w int, sp span) error {
		for k := sp.lo; k < sp.hi; k++ {
			lrow, rrow := left.Rows[bi[k]], right.Rows[pi[k]]
			joined := make(Row, 0, len(lrow)+len(rrow))
			joined = append(joined, lrow...)
			joined = append(joined, rrow...)
			out.Rows[k] = joined
		}
		return nil
	})
	return out, nil
}

// projectionBatch builds the batch a projection needs: the whole relation
// when an item is *, only the referenced columns otherwise.
func projectionBatch(rel *Relation, sel *sqlparse.Select, workers int) (*vec.Batch, error) {
	var exprs []sqlparse.Expr
	for _, it := range sel.Items {
		if _, isStar := it.Expr.(*sqlparse.Star); isStar {
			return vec.FromRows(rel.Cols, rel.Rows, workers)
		}
		exprs = append(exprs, it.Expr)
	}
	return vec.FromRowsProjected(rel.Cols, rel.Rows, referencedCols(rel, exprs), workers)
}

// The execution paths call the operators through these, which record one
// span per operator.

func (e *Exec) filterLocal(rel *Relation, predicate string, workers int) (*Relation, error) {
	sp := e.opSpan("filter", len(rel.Rows))
	out, err := FilterLocalN(rel, predicate, workers)
	endOpSpan(sp, out, err)
	return out, err
}

func (e *Exec) projectLocal(rel *Relation, items string, workers int) (*Relation, error) {
	sp := e.opSpan("project", len(rel.Rows))
	out, err := ProjectLocalN(rel, items, workers)
	endOpSpan(sp, out, err)
	return out, err
}

func (e *Exec) groupByLocal(rel *Relation, groupBy, items string, workers int) (*Relation, error) {
	sp := e.opSpan("groupby", len(rel.Rows))
	out, err := GroupByLocalN(rel, groupBy, items, workers)
	endOpSpan(sp, out, err)
	return out, err
}

func (e *Exec) aggregateLocal(rel *Relation, items string, workers int) (*Relation, error) {
	sp := e.opSpan("aggregate", len(rel.Rows))
	out, err := AggregateLocalN(rel, items, workers)
	endOpSpan(sp, out, err)
	return out, err
}

func (e *Exec) hashJoinLocal(left, right *Relation, leftKey, rightKey string, workers int) (*Relation, error) {
	sp := e.opSpan("hash join local", len(left.Rows)+len(right.Rows))
	out, err := HashJoinLocalN(left, right, leftKey, rightKey, workers)
	endOpSpan(sp, out, err)
	return out, err
}
