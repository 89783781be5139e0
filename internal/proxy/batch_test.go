package proxy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crypto/keys"
	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/store/single"
)

// mkKeyedProxy builds a proxy over a fresh embedded DB with explicit master
// key material, so two proxies can be compared ciphertext-for-ciphertext.
func mkKeyedProxy(t *testing.T, mk *keys.Master, workers int) *Proxy {
	t.Helper()
	p, err := newWithMaster(single.New(sqldb.New()), mk, Options{HOMBits: 256, BatchWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatchedInsertCiphertextEqualsSerial pushes one multi-row INSERT
// through the serial path (BatchWorkers=1) and the batched, parallel path
// (BatchWorkers=8) under the same master key, then verifies both the
// decrypted results and the deterministic server-side ciphertexts (DET and
// OPE, once the RND layers are peeled) are identical. The pipeline must be
// a pure performance change.
func TestBatchedInsertCiphertextEqualsSerial(t *testing.T) {
	mk, err := keys.NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	serial := mkKeyedProxy(t, mk, 1)
	parallel := mkKeyedProxy(t, mk, 8)

	const rows = 40
	var sb strings.Builder
	sb.WriteString("INSERT INTO t (id, name, score) VALUES ")
	for r := 0; r < rows; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'user-%d', %d)", r, r%7, (r*37)%101)
	}
	insert := sb.String()

	for _, p := range []*Proxy{serial, parallel} {
		mustExec(t, p, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score INT)")
		mustExec(t, p, insert)
	}

	// Full-pipeline logical equality (exercises the row-parallel decrypt).
	rs := mustExec(t, serial, "SELECT id, name, score FROM t ORDER BY id")
	rp := mustExec(t, parallel, "SELECT id, name, score FROM t ORDER BY id")
	if !reflect.DeepEqual(rs.Rows, rp.Rows) {
		t.Fatalf("decrypted results differ:\nserial:   %v\nparallel: %v", rs.Rows, rp.Rows)
	}
	if len(rs.Rows) != rows {
		t.Fatalf("got %d rows, want %d", len(rs.Rows), rows)
	}

	// Peel Eq to DET and Ord to OPE on every column of both proxies, so the
	// stored ciphertexts become deterministic functions of (master key,
	// plaintext) and can be compared byte for byte.
	for _, p := range []*Proxy{serial, parallel} {
		mustExec(t, p, "SELECT id FROM t WHERE name = 'nobody'")
		mustExec(t, p, "SELECT id FROM t WHERE name > 'zzz'")
		mustExec(t, p, "SELECT id FROM t WHERE score = -1")
		mustExec(t, p, "SELECT id FROM t WHERE score > 1000")
		mustExec(t, p, "SELECT name FROM t WHERE id = -1")
		mustExec(t, p, "SELECT name FROM t WHERE id > 1000")
	}

	tmS, tmP := serial.Table("t"), parallel.Table("t")
	for ci, cmS := range tmS.Cols {
		cmP := tmP.Cols[ci]
		for _, o := range []onion.Onion{onion.Eq, onion.Ord} {
			if !cmS.HasOnion(o) {
				continue
			}
			if cmS.Onions[o].Current() == onion.RND || cmP.Onions[o].Current() == onion.RND {
				t.Fatalf("%s onion of %s still at RND after adjustment queries", o, cmS.Logical)
			}
			q := fmt.Sprintf("SELECT %s FROM %s ORDER BY rid", cmS.onionCol(o), tmS.Anon)
			ctS, err := serial.DB().ExecSQL(q)
			if err != nil {
				t.Fatal(err)
			}
			ctP, err := parallel.DB().ExecSQL(fmt.Sprintf("SELECT %s FROM %s ORDER BY rid", cmP.onionCol(o), tmP.Anon))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ctS.Rows, ctP.Rows) {
				t.Fatalf("column %s onion %s: server ciphertexts differ between serial and batched paths",
					cmS.Logical, o)
			}
			if len(ctS.Rows) != rows {
				t.Fatalf("column %s onion %s: %d ciphertext rows, want %d", cmS.Logical, o, len(ctS.Rows), rows)
			}
		}
	}
}

// TestBatchedInsertErrorMatchesSerial verifies the parallel pipeline
// reports the same (lowest-index) error the serial path would for a batch
// with a failing row.
func TestBatchedInsertErrorMatchesSerial(t *testing.T) {
	mk, err := keys.NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	serial := mkKeyedProxy(t, mk, 1)
	parallel := mkKeyedProxy(t, mk, 8)

	// Row 5's score overflows the OPE domain (±2^39).
	var sb strings.Builder
	sb.WriteString("INSERT INTO t (id, score) VALUES ")
	for r := 0; r < 16; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		score := int64(r)
		if r == 5 {
			score = int64(1) << 45
		}
		fmt.Fprintf(&sb, "(%d, %d)", r, score)
	}
	insert := sb.String()

	var msgs []string
	for _, p := range []*Proxy{serial, parallel} {
		mustExec(t, p, "CREATE TABLE t (id INT, score INT)")
		_, err := p.Execute(insert)
		if err == nil {
			t.Fatal("want OPE domain error, got nil")
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error mismatch:\nserial:   %s\nparallel: %s", msgs[0], msgs[1])
	}
}

// TestBatchWorkersDefault ensures the zero value resolves to a parallel
// pool and an explicit 1 stays serial.
func TestBatchWorkersDefault(t *testing.T) {
	p := newTestProxy(t)
	if got := p.batchWorkers(); got < 1 {
		t.Fatalf("default batchWorkers = %d", got)
	}
	p.opts.BatchWorkers = 1
	if got := p.batchWorkers(); got != 1 {
		t.Fatalf("batchWorkers = %d, want 1", got)
	}
}

// TestForEachRowDeterministicError checks the pool returns the
// lowest-index error no matter how rows are scheduled.
func TestForEachRowDeterministicError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		err := forEachRow(workers, 64, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("row %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "row 3 failed" {
			t.Fatalf("workers=%d: err = %v, want row 3 failed", workers, err)
		}
	}
}
