package engine

import (
	"context"
	"fmt"
	"strings"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// Loading helpers write tables into the store at setup time. They bypass
// the metered client deliberately: dataset preparation is not part of any
// query's cost (the paper pre-loads TPC-H into S3 before measuring).

// PartitionTable writes rows as parts CSV partition objects (each with the
// header row) under table/partNNNN.csv, mirroring how PushdownDB lays out
// S3 data for parallel loading. Canceling ctx stops the load between
// partition writes.
func PartitionTable(ctx context.Context, st *store.Store, bucket, table string, header []string, rows [][]string, parts int) error {
	return PartitionTableTo(ctx, s3api.NewInProc(st), bucket, table, header, rows, parts)
}

// PartitionTableTo writes rows as partition objects through any backend
// that accepts writes (s3api.Putter) — the loading path for backends that
// are not a *store.Store, e.g. localfs.
func PartitionTableTo(ctx context.Context, p s3api.Putter, bucket, table string, header []string, rows [][]string, parts int) error {
	if parts < 1 {
		parts = 1
	}
	per := (len(rows) + parts - 1) / parts
	if per == 0 {
		per = 1
	}
	for i := 0; i < parts; i++ {
		lo, hi := i*per, (i+1)*per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		data := csvx.Encode(header, rows[lo:hi])
		if err := p.Put(ctx, bucket, store.PartitionKey(table, i), data); err != nil {
			return err
		}
	}
	return nil
}

// IndexTableName returns the canonical name of the index table for a
// column of a data table.
func IndexTableName(table, column string) string {
	return table + "_index_" + column
}

// BuildIndexTable scans every partition of a data table and writes the
// paper's Section IV-A index table — |value|first_byte_offset|
// last_byte_offset| — partition-aligned with the data table so that byte
// offsets refer to the matching data partition object.
func BuildIndexTable(st *store.Store, bucket, table, column string) error {
	keys := st.TableParts(bucket, table)
	if len(keys) == 0 {
		return fmt.Errorf("engine: no partitions for table %q", table)
	}
	idxTable := IndexTableName(table, column)
	for p, key := range keys {
		data, err := st.Get(bucket, key)
		if err != nil {
			return err
		}
		sc := csvx.NewScanner(data)
		if !sc.Scan() {
			return fmt.Errorf("engine: empty partition %s", key)
		}
		col := -1
		for i, h := range sc.Fields() {
			if strings.EqualFold(h, column) {
				col = i
				break
			}
		}
		if col < 0 {
			return fmt.Errorf("engine: column %q not in %s", column, key)
		}
		var rows [][]string
		for sc.Scan() {
			first, last := sc.Range()
			rows = append(rows, []string{
				sc.Field(col),
				fmt.Sprint(first),
				fmt.Sprint(last),
			})
		}
		if err := sc.Err(); err != nil {
			return err
		}
		idxData := csvx.Encode([]string{"value", "first_byte_offset", "last_byte_offset"}, rows)
		st.Put(bucket, store.PartitionKey(idxTable, p), idxData)
	}
	return nil
}

// PartitionTableColumnar writes rows as columnar (Parquet stand-in)
// partitions under table/partNNNN.csv keys. The key suffix stays .csv so
// partition listing is uniform; readers detect the format by magic.
func PartitionTableColumnar(st *store.Store, bucket, table string, schema colformat.Schema, rows [][]value.Value, parts, groupRows int, compress bool) error {
	if parts < 1 {
		parts = 1
	}
	per := (len(rows) + parts - 1) / parts
	if per == 0 {
		per = 1
	}
	for p := 0; p < parts; p++ {
		lo, hi := p*per, (p+1)*per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		data, err := colformat.Encode(schema, rows[lo:hi], groupRows, compress)
		if err != nil {
			return err
		}
		st.Put(bucket, store.PartitionKey(table, p), data)
	}
	return nil
}
