package proxy

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/replicated"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// The onion lifecycle: a column with no plan entry declares every onion,
// writes only Eq, and fills each other onion the first time a query needs
// it. These tests drive that through the statements an application sends
// and check the answers against a plaintext sqldb fed the same statements.

var deferredDDL = []string{
	"CREATE TABLE owner (oid INT PRIMARY KEY, name TEXT)",
	"CREATE TABLE acct (id INT PRIMARY KEY, holder INT, bal INT, memo TEXT)",
}

// deferredLoad returns multi-row INSERTs for nOwners owners and nAccts
// accounts; every account's memo holds two fixed-width words.
func deferredLoad(nOwners, nAccts int) []string {
	var lines []string
	var sb strings.Builder
	for i := 0; i < nOwners; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'owner-%02d')", i, i)
	}
	lines = append(lines, "INSERT INTO owner (oid, name) VALUES "+sb.String())
	for lo := 0; lo < nAccts; lo += 50 {
		sb.Reset()
		for i := lo; i < lo+50 && i < nAccts; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteString(acctRow(i, nOwners))
		}
		lines = append(lines, "INSERT INTO acct (id, holder, bal, memo) VALUES "+sb.String())
	}
	return lines
}

func acctRow(i, nOwners int) string {
	return fmt.Sprintf("(%d, %d, %d, 'kw%02d kw%02d')", i, i%nOwners, (i*37)%1000-200, i%10, 10+i%7)
}

// engineCases are the topologies every lifecycle case runs on.
var engineCases = []struct {
	name string
	open func(t *testing.T) store.Engine
}{
	{"single", func(t *testing.T) store.Engine { return single.New(sqldb.New()) }},
	{"sharded2", func(t *testing.T) store.Engine { return sharded.New(2) }},
	{"sharded4", func(t *testing.T) store.Engine { return sharded.New(4) }},
	{"paged", func(t *testing.T) store.Engine {
		// 64 KiB of cache against ~100 KiB of rows: the rewrite faults.
		e, err := single.Open(t.TempDir(), sqldb.DurabilityOptions{NoFsync: true, Paged: true, CacheBytes: 64 << 10, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() }) //nolint:errcheck // test teardown
		return e
	}},
}

// lifecycle is a proxy over some engine beside a plaintext oracle.
type lifecycle struct {
	t   *testing.T
	p   *Proxy
	orc *sqldb.DB
}

func newLifecycle(t *testing.T, eng store.Engine, opts Options) *lifecycle {
	t.Helper()
	opts.HOMBits = 256
	p, err := NewOnEngine(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &lifecycle{t: t, p: p, orc: sqldb.New()}
}

// both runs a statement on the proxy and on the oracle.
func (l *lifecycle) both(sql string) {
	l.t.Helper()
	if _, err := l.p.Execute(sql); err != nil {
		l.t.Fatalf("proxy: %s: %v", clipSQL(sql), err)
	}
	if _, err := l.orc.ExecSQL(sql); err != nil {
		l.t.Fatalf("oracle: %s: %v", clipSQL(sql), err)
	}
}

func (l *lifecycle) load(nOwners, nAccts int) {
	l.t.Helper()
	for _, s := range append(append([]string{}, deferredDDL...), deferredLoad(nOwners, nAccts)...) {
		l.both(s)
	}
}

// check compares the proxy's answer with the oracle's, as multisets.
func (l *lifecycle) check(sql string) {
	l.t.Helper()
	got, err := l.p.Execute(sql)
	if err != nil {
		l.t.Fatalf("proxy: %s: %v", sql, err)
	}
	want, err := l.orc.ExecSQL(sql)
	if err != nil {
		l.t.Fatalf("oracle: %s: %v", sql, err)
	}
	if g, w := sortedRows(got), sortedRows(want); g != w {
		l.t.Fatalf("%s\nproxy:  %s\noracle: %s", sql, clipSQL(g), clipSQL(w))
	}
}

func sortedRows(res *sqldb.Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, ",")
	}
	sort.Strings(rows)
	return strings.Join(rows, "|")
}

func clipSQL(s string) string {
	if len(s) > 300 {
		return s[:300] + "..."
	}
	return s
}

// stored counts the rows of a logical column whose onion o holds a
// ciphertext at the engine (summed across shards).
func (l *lifecycle) stored(table, col string, o onion.Onion) int {
	l.t.Helper()
	tm := l.p.Table(table)
	res, err := l.p.Engine().ExecSQL("SELECT COUNT(" + tm.Col(col).onionCol(o) + ") FROM " + tm.Anon)
	if err != nil {
		l.t.Fatal(err)
	}
	return int(res.Rows[0][0].I)
}

func (l *lifecycle) deferred(table, col string, o onion.Onion) bool {
	return l.p.Table(table).Col(col).Onions[o].Deferred
}

// firstUses is one row per deferred onion: the statement whose requirement
// names it, the columns it materialises, and a second statement of the same
// class that must then run on the read-lock path.
var firstUses = []struct {
	name   string
	onion  onion.Onion
	cols   [][2]string // table, column
	first  string
	second string
}{
	{"sum", onion.Add, [][2]string{{"acct", "bal"}},
		"SELECT SUM(bal) FROM acct", "SELECT COUNT(*), SUM(bal), AVG(bal) FROM acct"},
	{"range", onion.Ord, [][2]string{{"acct", "bal"}},
		"SELECT id FROM acct WHERE bal BETWEEN 100 AND 500", "SELECT id FROM acct WHERE bal < 0"},
	{"join", onion.JAdj, [][2]string{{"acct", "holder"}, {"owner", "oid"}},
		"SELECT a.id, o.name FROM acct a JOIN owner o ON a.holder = o.oid",
		"SELECT o.name, a.bal FROM owner o JOIN acct a ON o.oid = a.holder"},
	{"like", onion.Search, [][2]string{{"acct", "memo"}},
		"SELECT id FROM acct WHERE memo LIKE '%kw03%'", "SELECT id FROM acct WHERE memo LIKE '%kw12%'"},
}

// TestDeferredLoadWritesOnlyEq: after a load with no plan the engine holds
// no ciphertext of any onion but Eq, and under half the bytes of the same
// rows loaded with every onion listed in a plan (present from the first row).
func TestDeferredLoadWritesOnlyEq(t *testing.T) {
	eager := OnionPlan{}
	for _, tc := range []struct {
		t string
		c string
		k sqlparser.ColType
	}{{"owner", "oid", sqlparser.TypeInt}, {"owner", "name", sqlparser.TypeText},
		{"acct", "id", sqlparser.TypeInt}, {"acct", "holder", sqlparser.TypeInt},
		{"acct", "bal", sqlparser.TypeInt}, {"acct", "memo", sqlparser.TypeText}} {
		eager[planKey(tc.t, tc.c)] = onion.Onions(tc.k)
	}
	size := func(opts Options) (*lifecycle, int) {
		l := newLifecycle(t, single.New(sqldb.New()), opts)
		l.load(30, 300)
		return l, l.p.Engine().Stats().SizeBytes
	}
	l, lazy := size(Options{})
	le, full := size(Options{Plan: eager})
	if 2*lazy >= full {
		t.Fatalf("deferred load stores %d bytes, an all-eager load %d: want under half", lazy, full)
	}
	for _, tm := range []string{"owner", "acct"} {
		for _, cm := range l.p.Table(tm).Cols {
			for _, o := range onion.Onions(cm.Type) {
				n, en := l.stored(tm, cm.Logical, o), le.stored(tm, cm.Logical, o)
				rows := map[string]int{"owner": 30, "acct": 300}[tm]
				if en != rows {
					t.Errorf("eager %s.%s %s: %d ciphertexts, want %d", tm, cm.Logical, o, en, rows)
				}
				if want := map[bool]int{true: rows, false: 0}[o == onion.Eq]; n != want {
					t.Errorf("deferred %s.%s %s: %d ciphertexts, want %d", tm, cm.Logical, o, n, want)
				}
				if l.deferred(tm, cm.Logical, o) != (o != onion.Eq) || le.deferred(tm, cm.Logical, o) {
					t.Errorf("%s.%s %s: wrong Deferred bit", tm, cm.Logical, o)
				}
			}
		}
	}
	// Projection, equality and in-proxy ORDER BY need nothing but Eq.
	before := l.p.Stats().OnionAdjustments
	l.check("SELECT id, bal, memo FROM acct ORDER BY bal")
	l.check("SELECT COUNT(*) FROM acct WHERE holder = 7")
	if l.stored("acct", "bal", onion.Ord) != 0 || l.stored("acct", "holder", onion.JAdj) != 0 {
		t.Fatal("a query that needs only Eq materialised another onion")
	}
	if got := l.p.Stats().OnionAdjustments - before; got != 1 { // holder's Eq: RND -> DET
		t.Fatalf("adjustments = %d, want 1", got)
	}
}

// TestDeferredFirstUse: for each onion, on each topology, the first use on a
// 300-row table answers as the plaintext oracle does and fills the column;
// the second use adjusts nothing; rows inserted afterwards carry the onion.
func TestDeferredFirstUse(t *testing.T) {
	for _, ec := range engineCases {
		for _, fu := range firstUses {
			t.Run(ec.name+"/"+fu.name, func(t *testing.T) {
				l := newLifecycle(t, ec.open(t), Options{})
				l.load(30, 300)
				rows := map[string]int{"owner": 30, "acct": 300}
				for _, c := range fu.cols {
					if !l.deferred(c[0], c[1], fu.onion) || l.stored(c[0], c[1], fu.onion) != 0 {
						t.Fatalf("%s.%s %s is not deferred after the load", c[0], c[1], fu.onion)
					}
				}
				l.check(fu.first)
				for _, c := range fu.cols {
					if l.deferred(c[0], c[1], fu.onion) {
						t.Fatalf("%s.%s %s still deferred after first use", c[0], c[1], fu.onion)
					}
					if n := l.stored(c[0], c[1], fu.onion); n != rows[c[0]] {
						t.Fatalf("%s.%s %s: %d ciphertexts after first use, want %d", c[0], c[1], fu.onion, n, rows[c[0]])
					}
				}
				// Only the named onion of the named columns was filled.
				if fu.onion != onion.Ord && l.stored("acct", "bal", onion.Ord) != 0 {
					t.Fatal("first use materialised an onion it did not need")
				}

				adj := l.p.Stats().OnionAdjustments
				l.check(fu.second)
				l.check(fu.first)
				if got := l.p.Stats().OnionAdjustments; got != adj {
					t.Fatalf("second use moved OnionAdjustments %d -> %d", adj, got)
				}

				l.both("INSERT INTO owner (oid, name) VALUES (30, 'owner-30')")
				l.both("INSERT INTO acct (id, holder, bal, memo) VALUES " + acctRow(300, 31) + ", (301, 30, NULL, NULL)")
				l.both("UPDATE acct SET bal = 123, memo = 'kw03 kw12' WHERE id = 5")
				l.check(fu.first)
				l.check(fu.second)
				// Row 301's bal and memo are NULL; every other new value is stored.
				want := map[[2]string]int{{"acct", "holder"}: 302, {"owner", "oid"}: 31, {"acct", "bal"}: 301, {"acct", "memo"}: 301}
				for _, c := range fu.cols {
					if n := l.stored(c[0], c[1], fu.onion); n != want[c] {
						t.Fatalf("%s.%s %s: %d ciphertexts after later writes, want %d", c[0], c[1], fu.onion, n, want[c])
					}
				}
			})
		}
	}
}

// TestDeferredIncrementThenResync: an increment is the first use of a
// deferred Add onion; the equality, range and join that follow read the
// incremented values (resync from Add, then materialise from the fresh Eq).
func TestDeferredIncrementThenResync(t *testing.T) {
	for _, ec := range engineCases {
		t.Run(ec.name, func(t *testing.T) {
			l := newLifecycle(t, ec.open(t), Options{})
			l.load(30, 300)
			l.both("UPDATE acct SET holder = holder + 1 WHERE id < 150")
			if l.deferred("acct", "holder", onion.Add) || l.stored("acct", "holder", onion.Add) != 300 {
				t.Fatal("increment did not materialise the Add onion")
			}
			l.check("SELECT id, holder FROM acct") // stale: read through Add
			l.check("SELECT id FROM acct WHERE holder = 30")
			if n := l.p.Stats().Resyncs; n != 1 {
				t.Fatalf("resyncs = %d, want 1", n)
			}
			if l.stored("acct", "holder", onion.Ord) != 0 || l.stored("acct", "holder", onion.JAdj) != 0 {
				t.Fatal("resync wrote a deferred onion")
			}
			l.both("UPDATE acct SET holder = holder - 1 WHERE id < 10")
			l.check("SELECT id FROM acct WHERE holder BETWEEN 3 AND 5")
			l.both("UPDATE acct SET holder = holder + 2 WHERE id = 299")
			l.check("SELECT a.id, o.name FROM acct a JOIN owner o ON a.holder = o.oid")
			l.check("SELECT SUM(holder) FROM acct")
		})
	}
}

// TestDeferredConcurrentInsertFirstUse: eight sessions insert while a ninth
// issues the first SUM, range, join and LIKE. Writers hold the read side of
// Proxy.mu for a whole statement and materialise holds the write side, so
// every row ends up in every materialised onion exactly once.
func TestDeferredConcurrentInsertFirstUse(t *testing.T) {
	l := newLifecycle(t, single.New(sqldb.New()), Options{})
	l.load(30, 300)
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := l.p.NewSession()
			defer s.Close() //nolint:errcheck // test teardown
			for i := 0; i < each; i++ {
				if _, err := s.Execute("INSERT INTO acct (id, holder, bal, memo) VALUES " + acctRow(1000+w*each+i, 30)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := l.p.NewSession()
		defer s.Close() //nolint:errcheck // test teardown
		for _, fu := range firstUses {
			if _, err := s.Execute(fu.first); err != nil {
				errs <- fmt.Errorf("%s: %w", fu.first, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			if _, err := l.orc.ExecSQL("INSERT INTO acct (id, holder, bal, memo) VALUES " + acctRow(1000+w*each+i, 30)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const total = 300 + writers*each
	for _, fu := range firstUses {
		l.check(fu.first)
		c := fu.cols[0]
		if n := l.stored(c[0], c[1], fu.onion); n != total {
			t.Fatalf("%s.%s %s: %d ciphertexts, want %d", c[0], c[1], fu.onion, n, total)
		}
	}
	l.check("SELECT COUNT(*), SUM(bal) FROM acct")
}

// TestDeferredFirstUseBlockedByOpenTxn: rows buffered in another session's
// open transaction would miss the rewrite, so the first use is refused with
// the retryable conflict error and the onion stays deferred.
func TestDeferredFirstUseBlockedByOpenTxn(t *testing.T) {
	l := newLifecycle(t, single.New(sqldb.New()), Options{})
	l.load(30, 300)
	a, b := l.p.NewSession(), l.p.NewSession()
	defer a.Close() //nolint:errcheck // test teardown
	defer b.Close() //nolint:errcheck // test teardown
	mustSess(t, a, "BEGIN")
	mustSess(t, a, "INSERT INTO acct (id, holder, bal, memo) VALUES "+acctRow(300, 30))
	for _, fu := range firstUses {
		_, err := b.Execute(fu.first)
		if err == nil || !strings.Contains(err.Error(), "conflicts with an open transaction; retry") {
			t.Fatalf("%s with a writer's transaction open: %v", fu.first, err)
		}
		if c := fu.cols[0]; !l.deferred(c[0], c[1], fu.onion) || l.stored(c[0], c[1], fu.onion) != 0 {
			t.Fatalf("%s: refused first use changed the onion", fu.name)
		}
	}
	mustSess(t, a, "COMMIT")
	if _, err := l.orc.ExecSQL("INSERT INTO acct (id, holder, bal, memo) VALUES " + acctRow(300, 30)); err != nil {
		t.Fatal(err)
	}
	for _, fu := range firstUses {
		l.check(fu.first)
		if c := fu.cols[0]; l.stored(c[0], c[1], fu.onion) != 301 {
			t.Fatalf("%s: the committed row is missing from the onion", fu.name)
		}
	}
}

// faultyEngine fails the failAt-th autonomous write (1-based) and, while
// failMeta is set, every metadata commit.
type faultyEngine struct {
	store.Engine
	writes, failAt int
	failMeta       bool
}

var errInjected = errors.New("injected engine fault")

func (f *faultyEngine) ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	f.writes++
	if f.writes == f.failAt {
		return nil, errInjected
	}
	return f.Engine.ExecAutonomous(st, params...)
}

func (f *faultyEngine) SetMeta(meta []byte) error {
	if f.failMeta {
		return errInjected
	}
	return f.Engine.SetMeta(meta)
}

// TestDeferredMaterialiseFaults: a write-back that fails part-way, and a
// crash between the write-back and the metadata commit, both leave the bit
// set; the retry redoes the rewrite and the answers match.
func TestDeferredMaterialiseFaults(t *testing.T) {
	for _, fu := range firstUses {
		t.Run(fu.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := sqldb.Open(dir, sqldb.DurabilityOptions{NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			fe := &faultyEngine{Engine: single.New(db)}
			l := newLifecycle(t, fe, Options{DataDir: dir})
			l.load(30, 300)
			c := fu.cols[0]

			fe.writes, fe.failAt = 0, 120
			if _, err := l.p.Execute(fu.first); !errors.Is(err, errInjected) {
				t.Fatalf("first use with a failing write-back: %v", err)
			}
			if !l.deferred(c[0], c[1], fu.onion) {
				t.Fatal("a failed write-back cleared the bit")
			}
			// Rows written before the fault are harmless: writers still skip
			// the onion, and the redo overwrites them.
			l.both("INSERT INTO acct (id, holder, bal, memo) VALUES " + acctRow(300, 30))

			// Every row written, the metadata commit lost: as a kill -9 there.
			fe.failAt, fe.failMeta = 0, true
			if _, err := l.p.Execute(fu.first); !errors.Is(err, errInjected) {
				t.Fatalf("first use with a failing metadata commit: %v", err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, p2 := openDurable(t, dir)
			l.p = p2
			if !l.deferred(c[0], c[1], fu.onion) {
				t.Fatal("the bit did not survive the restart set")
			}
			l.check(fu.first)
			l.check(fu.second)
			if l.deferred(c[0], c[1], fu.onion) || l.stored(c[0], c[1], fu.onion) != 301 {
				t.Fatal("the retry did not materialise the onion")
			}
			// And the cleared bit is durable.
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			_, p3 := openDurable(t, dir)
			l.p = p3
			if l.deferred(c[0], c[1], fu.onion) {
				t.Fatal("the cleared bit was not persisted")
			}
			l.check(fu.first)
			if n := p3.Stats().OnionAdjustments; n != 0 {
				t.Fatalf("a restarted proxy adjusted %d onions for a query it had served", n)
			}
		})
	}
}

// TestDeferredReplicaRefusesThenServes: a follower cannot materialise (a
// write); it redirects to the primary until the primary's rewrite and the
// blob that clears the bit have replayed.
func TestDeferredReplicaRefusesThenServes(t *testing.T) {
	primDir := t.TempDir()
	eng, err := single.Open(primDir, sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := replicated.WrapPrimary(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close() //nolint:errcheck // test teardown
	l := newLifecycle(t, pe, Options{DataDir: primDir})
	l.load(30, 300)
	fp, fe := openReplicaProxy(t, pe, primDir)

	for _, fu := range firstUses {
		var ro *store.ReadOnlyError
		if _, err := fp.Execute(fu.first); !errors.As(err, &ro) || ro.Primary != pe.Addr() {
			t.Fatalf("%s on the follower before the primary ran it: %v", fu.first, err)
		}
		want := resultString(t, l.p, fu.first)
		waitReplica(t, pe, fe)
		if got := resultString(t, fp, fu.first); sortLines(got) != sortLines(want) {
			t.Fatalf("%s on the follower:\n%s\nprimary:\n%s", fu.first, got, want)
		}
	}
}

func sortLines(s string) string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestDeferredParentDataDirNotRematerialised: a data directory written
// before the Deferred bit existed (metadata version 1) has every declared
// onion present. Its first SUM, LIKE and join rewrite no column — a join
// strips RND, which is an adjustment, but materialises nothing.
func TestDeferredParentDataDirNotRematerialised(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal.log", "proxy-keys.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent_datadir", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	db, p := openDurable(t, dir)
	for _, cm := range p.Table("emp").Cols {
		for _, o := range onion.Onions(cm.Type) {
			if st := cm.Onions[o]; st == nil || st.Deferred {
				t.Fatalf("emp.%s %s: restored as %+v, want present", cm.Logical, o, st)
			}
		}
	}
	// The oracle is the directory's own content, read through Eq.
	orc := sqldb.New()
	if _, err := orc.ExecSQL("CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, salary INT, bonus INT, age INT)"); err != nil {
		t.Fatal(err)
	}
	all := mustExecP(t, p, "SELECT id, name, salary, bonus, age FROM emp")
	for _, r := range all.Rows {
		if _, err := orc.ExecSQL("INSERT INTO emp (id, name, salary, bonus, age) VALUES (?, ?, ?, ?, ?)", r...); err != nil {
			t.Fatal(err)
		}
	}
	l := &lifecycle{t: t, p: p, orc: orc}

	batches := db.WALStats().Batches
	l.check("SELECT SUM(age) FROM emp")
	l.check("SELECT id FROM emp WHERE name LIKE '%n3%'")
	if n := p.Stats().OnionAdjustments; n != 0 {
		t.Fatalf("first SUM and LIKE on the parent's directory adjusted %d onions", n)
	}
	// One commit each: the UsedSum and UsedSearch flags. No row was rewritten.
	if got := db.WALStats().Batches - batches; got != 2 {
		t.Fatalf("first SUM and LIKE appended %d WAL batches, want 2 (usage flags only)", got)
	}
	l.check("SELECT a.name, b.name FROM emp a JOIN emp b ON a.age = b.id")
	l.both("UPDATE emp SET age = age + 1 WHERE id = 2")
	l.check("SELECT id, age FROM emp WHERE age BETWEEN 20 AND 40")
}

// TestPlanOmittedOnionRefused: an onion a plan entry omits is refused with
// the table, column and onion named; a column the plan does not mention is
// deferred, not refused.
func TestPlanOmittedOnionRefused(t *testing.T) {
	p, err := New(sqldb.New(), Options{HOMBits: 256, Plan: OnionPlan{
		"t.a": {onion.Eq, onion.Ord},
		"t.s": {onion.Eq},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, p, "CREATE TABLE t (a INT, b INT, s TEXT)")
	mustExec(t, p, "CREATE TABLE u (a INT)")
	mustExec(t, p, "INSERT INTO t (a, b, s) VALUES (1, 2, 'x y'), (3, 4, 'y z')")
	for _, c := range []struct{ sql, want string }{
		{"SELECT SUM(a) FROM t", "proxy: t.a has no Add onion"},
		{"UPDATE t SET a = a + 1", "t.a: increment on column without Add onion"},
		{"SELECT a FROM t WHERE s LIKE '%x%'", "proxy: t.s has no Search onion"},
		{"SELECT a FROM t WHERE s > 'a' LIMIT 1", "proxy: t.s has no Ord onion"},
		{"SELECT t.a FROM t JOIN u ON t.a = u.a", "proxy: t.a has no JAdj onion"},
		{"SELECT t.b FROM t JOIN u ON u.a = t.a", "proxy: t.a has no JAdj onion"},
		{"SELECT a FROM t WHERE a > 1", ""},
		{"SELECT SUM(b) FROM t", ""},
		{"SELECT u.a FROM t JOIN u ON t.b = u.a", ""},
		{"SELECT b FROM t WHERE b BETWEEN 1 AND 3", ""},
		{"SELECT COUNT(*) FROM t WHERE a = 1 OR s = 'x y'", ""},
	} {
		_, err := p.Execute(c.sql)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.sql, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.sql, err, c.want)
		}
	}
	tm := p.Table("t")
	if st := tm.Col("a").Onions[onion.Ord]; st == nil || st.Deferred {
		t.Fatal("a plan-listed onion must be present from the first row")
	}
	if tm.Col("a").HasOnion(onion.Add) || tm.Col("s").HasOnion(onion.Search) {
		t.Fatal("a plan-omitted onion was declared")
	}
	rep := map[string]ColumnReport{}
	for _, r := range p.Report() {
		rep[r.Table+"."+r.Column] = r
	}
	if got := fmt.Sprint(rep["t.a"].Present, rep["t.a"].Deferred); got != "[Eq Ord] []" {
		t.Errorf("report of t.a: %s", got)
	}
	if got := fmt.Sprint(rep["t.b"].Present, rep["t.b"].Deferred); got != "[Eq JAdj Ord Add] []" {
		t.Errorf("report of t.b: %s", got)
	}
	if got := fmt.Sprint(rep["u.a"].Present, rep["u.a"].Deferred); got != "[Eq JAdj] [Ord Add]" {
		t.Errorf("report of u.a: %s", got)
	}
}
