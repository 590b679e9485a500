package engine

import (
	"context"
	"strings"
	"testing"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// TestRaggedObjectStrategiesAgree: a CSV object whose rows are shorter or
// longer than its header answers the same through every strategy. S3
// Select pads a short row with empty fields (NULL) and drops the extra
// fields of a long one; the GET-based loads and the index fetch must
// shape decoded rows the same way.
func TestRaggedObjectStrategiesAgree(t *testing.T) {
	ctx := context.Background()
	be := s3api.NewInProc(store.New())
	obj := []byte("a,b,c\n1,x,5\n2\n3,y,7,extra\n")
	if err := be.Put(ctx, diffBucket, store.PartitionKey("r", 0), obj); err != nil {
		t.Fatal(err)
	}
	db, err := Open(diffBucket, WithBackend("inproc", be))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(ctx, "r", "a"); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"":          {"1|x|5", "2||", "3|y|7"},
		"a >= 1":    {"1|x|5", "2||", "3|y|7"},
		"b IS NULL": {"2||"},
		"c > 4":     {"1|x|5", "3|y|7"},
	}
	for pred, rows := range want {
		expect := "a|b|c\n" + strings.Join(rows, "\n")
		server, err := db.NewExec().ServerSideFilter("r", pred, "")
		if err != nil {
			t.Fatalf("ServerSideFilter(%q): %v", pred, err)
		}
		s3, err := db.NewExec().S3SideFilter("r", pred, "*")
		if err != nil {
			t.Fatalf("S3SideFilter(%q): %v", pred, err)
		}
		sql := "SELECT * FROM r"
		if pred != "" {
			sql += " WHERE " + pred
		}
		query, _, err := db.Query(sql)
		if err != nil {
			t.Fatalf("Query(%q): %v", sql, err)
		}
		for name, rel := range map[string]*Relation{"ServerSideFilter": server, "S3SideFilter": s3, "Query": query} {
			if got := render(rel, false); got != expect {
				t.Errorf("%s(%q):\n%s\nwant:\n%s", name, pred, got, expect)
			}
		}
	}
	// The index fetch decodes whole rows from byte ranges.
	rel, _, err := db.NewExec().IndexScanFilter("r", "a", "a >= 1", "*")
	if err != nil {
		t.Fatal(err)
	}
	if got, expect := render(rel, false), "a|b|c\n1|x|5\n2||\n3|y|7"; got != expect {
		t.Errorf("IndexScanFilter:\n%s\nwant:\n%s", got, expect)
	}
}
