package sqldb

import (
	"reflect"
	"testing"
)

// numericLeaves returns every integer field reachable from v (a struct),
// by path, depth first.
func numericLeaves(v reflect.Value, path string, out map[string]reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			numericLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Int, reflect.Int64:
		out[path] = v
	default:
		panic("Stats holds a non-integer leaf at " + path + "; teach this test and Add about it")
	}
}

// TestStatsAddSumsEveryField: Add sums every counter of the snapshot. It
// fills each integer leaf of two snapshots with distinct values, so a
// field added to Stats (or to one of its parts) and missed by Add fails.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	la, lb := map[string]reflect.Value{}, map[string]reflect.Value{}
	numericLeaves(reflect.ValueOf(&a).Elem(), "Stats", la)
	numericLeaves(reflect.ValueOf(&b).Elem(), "Stats", lb)
	if len(la) < 20 {
		t.Fatalf("found only %d counters in Stats", len(la))
	}
	want := map[string]int64{}
	i := int64(1)
	for path, v := range la {
		v.SetInt(i)
		lb[path].SetInt(1000 * i)
		want[path] = 1001 * i
		i++
	}
	a.Add(b)
	for path, v := range la {
		if got := v.Int(); got != want[path] {
			t.Errorf("%s = %d after Add, want %d: Add does not sum it", path, got, want[path])
		}
	}
}

// TestStatsSnapshot: one snapshot reads every part of the database: the
// planner, the WAL, the cache, sizes and checkpoints.
func TestStatsSnapshot(t *testing.T) {
	db, err := Open(t.TempDir(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	mustExec(t, db, "SELECT a FROM t WHERE a > 0")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Plan.Compiled == 0 || st.Plan.FullScans == 0 {
		t.Errorf("plan counters missing: %+v", st.Plan)
	}
	if st.WAL.Batches == 0 || st.WAL.Checkpoints == 0 {
		t.Errorf("WAL counters missing: %+v", st.WAL)
	}
	if st.Cache.ResidentPages == 0 || st.Cache.BudgetBytes != 0 {
		t.Errorf("cache counters: %+v (an unpaged cache has no budget)", st.Cache)
	}
	if st.SizeBytes != db.SizeBytes() || st.SizeBytes == 0 || st.DiskBytes == 0 || st.BusyNanos == 0 || st.LastCheckpointBytes == 0 {
		t.Errorf("snapshot = %+v", st)
	}
	if mem := New().Stats(); mem.WAL != (WALStats{}) || mem.DiskBytes != 0 {
		t.Errorf("in-memory database reports durability: %+v", mem)
	}
}
