package proxy

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/replicated"
	"repro/internal/store/single"
)

// openReplicaProxy provisions a follower: the primary's key file is copied
// into the follower's data dir (the operator step), the follower engine
// catches up, and a replica proxy opens over it.
func openReplicaProxy(t *testing.T, pe *replicated.PrimaryEngine, primDir string) (*Proxy, *replicated.FollowerEngine) {
	t.Helper()
	folDir := t.TempDir()
	kf, err := os.ReadFile(filepath.Join(primDir, keyFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folDir, keyFileName), kf, 0o600); err != nil {
		t.Fatal(err)
	}
	fe, err := replicated.OpenFollower(folDir, pe.Addr(), sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() }) //nolint:errcheck // test teardown
	waitReplica(t, pe, fe)
	fp, err := NewOnEngine(fe, Options{HOMBits: 256, DataDir: folDir})
	if err != nil {
		t.Fatal(err)
	}
	return fp, fe
}

func waitReplica(t *testing.T, pe *replicated.PrimaryEngine, fe *replicated.FollowerEngine) {
	t.Helper()
	seqs := make([]uint64, pe.Shards())
	for i := range seqs {
		seqs[i] = pe.Replication().ShardSeq(i)
	}
	if err := fe.WaitCaughtUp(seqs, 20*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaProxyServesReads: encrypted rows written through the primary
// proxy decrypt identically through a replica proxy, while every write is
// refused with a redirect naming the primary.
func TestReplicaProxyServesReads(t *testing.T) {
	primDir := t.TempDir()
	eng, err := single.Open(primDir, sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := replicated.WrapPrimary(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	pp, err := NewOnEngine(pe, Options{HOMBits: 256, DataDir: primDir})
	if err != nil {
		t.Fatal(err)
	}

	mustExecP(t, pp, "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, salary INT)")
	for i := 1; i <= 8; i++ {
		mustExecP(t, pp, fmt.Sprintf("INSERT INTO emp (id, name, salary) VALUES (%d, 'n%d', %d)", i, i, i*100))
	}
	// Peel Ord and Eq on the primary so the replica's restored metadata
	// has non-trivial layer state to agree with the shipped ciphertexts.
	wantRange := resultString(t, pp, "SELECT name FROM emp WHERE salary > 350 ORDER BY salary")
	wantEq := resultString(t, pp, "SELECT salary FROM emp WHERE name = 'n3'")

	fp, _ := openReplicaProxy(t, pe, primDir)
	if !fp.IsReplica() {
		t.Fatal("replica proxy does not report IsReplica")
	}
	if fp.PrimaryAddr() != pe.Addr() {
		t.Fatalf("PrimaryAddr = %q, want %q", fp.PrimaryAddr(), pe.Addr())
	}
	if fp.ReplicaSeq() == 0 {
		t.Fatal("ReplicaSeq is 0 after catch-up")
	}
	// The replica's metadata restored the peeled layers.
	if st := fp.Table("emp").Col("salary").Onions[onion.Ord]; st.Current() != onion.OPE {
		t.Fatalf("replica sees salary Ord at %s, want OPE", st.Current())
	}

	if got := resultString(t, fp, "SELECT name FROM emp WHERE salary > 350 ORDER BY salary"); got != wantRange {
		t.Fatalf("replica range:\ngot %q\nwant %q", got, wantRange)
	}
	if got := resultString(t, fp, "SELECT salary FROM emp WHERE name = 'n3'"); got != wantEq {
		t.Fatalf("replica equality:\ngot %q\nwant %q", got, wantEq)
	}

	for _, w := range []string{
		"INSERT INTO emp (id, name, salary) VALUES (99, 'x', 1)",
		"UPDATE emp SET salary = 1 WHERE id = 1",
		"DELETE FROM emp WHERE id = 1",
		"CREATE TABLE other (id INT PRIMARY KEY)",
		"DROP TABLE emp",
		"BEGIN",
	} {
		_, err := fp.Execute(w)
		var ro *store.ReadOnlyError
		if !errors.As(err, &ro) {
			t.Fatalf("%s on replica: got %v, want ReadOnlyError", w, err)
		}
		if ro.Primary != pe.Addr() {
			t.Fatalf("%s: redirect names %q, want %q", w, ro.Primary, pe.Addr())
		}
	}
	// Raising a layer rewrites the column: a write, like the statements.
	var ro *store.ReadOnlyError
	if err := fp.RaiseOnion("emp", "salary", onion.Ord); !errors.As(err, &ro) {
		t.Fatalf("RaiseOnion on replica: got %v, want ReadOnlyError", err)
	}
	if st := fp.Table("emp").Col("salary").Onions[onion.Ord]; st.Current() != onion.OPE {
		t.Fatalf("refused raise left salary Ord at %s, want OPE", st.Current())
	}
}

// TestReplicaProxyMetaRefresh: schema and onion transitions made on the
// primary AFTER the replica proxy opened become visible without a restart
// — the replica notices the replicated metadata generation moving and
// reloads its sealed snapshot before the next query.
func TestReplicaProxyMetaRefresh(t *testing.T) {
	primDir := t.TempDir()
	eng, err := single.Open(primDir, sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := replicated.WrapPrimary(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	pp, err := NewOnEngine(pe, Options{HOMBits: 256, DataDir: primDir})
	if err != nil {
		t.Fatal(err)
	}
	mustExecP(t, pp, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExecP(t, pp, "INSERT INTO a (id, v) VALUES (1, 10)")

	fp, fe := openReplicaProxy(t, pe, primDir)
	if got := resultString(t, fp, "SELECT v FROM a"); got != "10\n" {
		t.Fatalf("replica initial read: %q", got)
	}
	// A predicate whose onion layer has NOT been peeled on the primary is
	// refused with the redirect — the adjustment is a write.
	if _, err := fp.Execute("SELECT v FROM a WHERE v > 5"); err == nil {
		t.Fatal("replica ran a query needing an onion adjustment")
	} else {
		var ro *store.ReadOnlyError
		if !errors.As(err, &ro) {
			t.Fatalf("adjustment-needing query: got %v, want ReadOnlyError", err)
		}
	}

	// A whole new table appears on the primary...
	mustExecP(t, pp, "CREATE TABLE b (id INT PRIMARY KEY, s TEXT)")
	mustExecP(t, pp, "INSERT INTO b (id, s) VALUES (7, 'fresh')")
	// ...and an onion peel changes existing layer state.
	want := resultString(t, pp, "SELECT v FROM a WHERE v > 5")
	waitReplica(t, pe, fe)

	// The replica serves the new table and the peeled predicate without
	// reopening anything.
	if got := resultString(t, fp, "SELECT s FROM b"); got != "fresh\n" {
		t.Fatalf("replica read of post-open table: %q", got)
	}
	if got := resultString(t, fp, "SELECT v FROM a WHERE v > 5"); got != want {
		t.Fatalf("replica read after peel:\ngot %q\nwant %q", got, want)
	}
}

// TestReplicaProxyRequiresKeyFile: a replica data dir without the
// primary's key file must refuse to open, not mint fresh keys that can
// never unseal the primary's metadata.
func TestReplicaProxyRequiresKeyFile(t *testing.T) {
	primDir := t.TempDir()
	eng, err := single.Open(primDir, sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := replicated.WrapPrimary(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	if _, err := NewOnEngine(pe, Options{HOMBits: 256, DataDir: primDir}); err != nil {
		t.Fatal(err)
	}

	folDir := t.TempDir()
	fe, err := replicated.OpenFollower(folDir, pe.Addr(), sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if _, err := NewOnEngine(fe, Options{HOMBits: 256, DataDir: folDir}); err == nil {
		t.Fatal("replica proxy opened without the primary's key file")
	}
}
