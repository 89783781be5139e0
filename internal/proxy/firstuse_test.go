package proxy

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/crypto/keys"
	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// The first use of a deferred onion writes it once: at the layer and join
// key its statement needs, in one WAL batch per shard, with no server-side
// peel or re-key. These tests hold that route to the one a plan-eager
// onion takes (written at RND from the first row, then peeled and re-keyed
// on the server) and to its commit and fault contracts.

// serverValues returns onion o of table.col as the engine stores it, by rid.
func serverValues(t *testing.T, p *Proxy, table, col string, o onion.Onion) map[int64]string {
	t.Helper()
	tm := p.Table(table)
	res, err := p.Engine().ExecSQL("SELECT rid, " + tm.Col(col).onionCol(o) + " FROM " + tm.Anon)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]string, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].I] = r[1].String()
	}
	return out
}

// TestFirstUseMatchesPeelRoute: under one master key, a range and a join
// leave the deferred columns with the same server bytes, layers and join
// key references as plan-eager columns that the server peeled and re-keyed,
// and the deferred route sends the server neither an RND key nor a
// JOIN-ADJ delta.
func TestFirstUseMatchesPeelRoute(t *testing.T) {
	mk := keys.MasterFromBytes([]byte("first-use"))
	eager := OnionPlan{}
	onions := []struct {
		table, col string
		o          onion.Onion
	}{{"acct", "bal", onion.Ord}, {"acct", "holder", onion.JAdj}, {"owner", "oid", onion.JAdj}}
	for _, c := range onions {
		eager[planKey(c.table, c.col)] = onion.Onions(sqlparser.TypeInt)
	}
	for _, ec := range engineCases {
		t.Run(ec.name, func(t *testing.T) {
			var sent []string
			open := func(eng store.Engine, plan OnionPlan) *lifecycle {
				p, err := newWithMaster(eng, mk, Options{HOMBits: 256, Plan: plan})
				if err != nil {
					t.Fatal(err)
				}
				l := &lifecycle{t: t, p: p, orc: sqldb.New()}
				l.load(30, 300)
				return l
			}
			lazy := open(recordingEngine{Engine: ec.open(t), sent: &sent}, nil)
			peeled := open(ec.open(t), eager)
			loaded := len(sent)
			for _, sql := range []string{
				"SELECT id FROM acct WHERE bal BETWEEN 100 AND 500",
				"SELECT a.id, o.name FROM acct a JOIN owner o ON a.holder = o.oid",
			} {
				lazy.check(sql)
				peeled.check(sql)
			}
			for _, s := range sent[loaded:] {
				if strings.Contains(s, "decrypt_rnd") || strings.Contains(s, "join_adj") {
					t.Errorf("the deferred route sent a peel or re-key: %s", clipSQL(s))
				}
			}
			for _, c := range onions {
				if lazy.deferred(c.table, c.col, c.o) {
					t.Fatalf("%s.%s %s still deferred", c.table, c.col, c.o)
				}
				if g, w := onionState(lazy.p, c.o, [][2]string{{c.table, c.col}}), onionState(peeled.p, c.o, [][2]string{{c.table, c.col}}); g != w {
					t.Errorf("metadata %s, the peeled route's %s", g, w)
				}
				got, want := serverValues(t, lazy.p, c.table, c.col, c.o), serverValues(t, peeled.p, c.table, c.col, c.o)
				if len(got) != map[string]int{"acct": 300, "owner": 30}[c.table] || !maps.Equal(got, want) {
					t.Errorf("%s.%s %s: %d server values differ from the peeled route's %d", c.table, c.col, c.o, len(got), len(want))
				}
			}
		})
	}
}

// adjusting is a statement that adjusts onions, under an onion plan.
type adjusting struct {
	name string
	plan OnionPlan
	stmt string
}

// mixedAdjustments adjust several onions at once: peels beside first uses,
// and a planned join's two peels and re-key.
var mixedAdjustments = []adjusting{
	{"eq+range", nil, "SELECT id FROM acct WHERE memo = 'kw01 kw11' AND bal < 5"},
	{"eq+range/planned", OnionPlan{"acct.bal": {onion.Eq, onion.Ord}},
		"SELECT id FROM acct WHERE memo = 'kw01 kw11' AND bal < 5"},
	{"join/planned", OnionPlan{"acct.holder": {onion.Eq, onion.JAdj}, "owner.oid": {onion.Eq, onion.JAdj}},
		"SELECT a.id, o.name FROM acct a JOIN owner o ON a.holder = o.oid"},
	{"join+eq", nil, "SELECT a.id FROM acct a JOIN owner o ON a.holder = o.oid WHERE o.name = 'owner-03'"},
}

// TestFirstUseOneBatchPerShard: on disk, each statement that adjusts onions
// appends exactly one WAL batch to every shard that carries what it writes
// there, whatever it adjusts: the rows of every column it fills, its peels
// and re-keys, the indexes the layers it exposes allow, and the sealed
// metadata (the last shard's). On shards every shard but the last, whose
// batch decides, logs its batch as a prepared part and then one outcome
// batch of a single record, which its replication stream carries: 2n-1
// batches on n shards. A first use used to append one per row, and each
// adjustment and index build one of its own. A client CREATE INDEX on a
// column already exposed is one batch per shard too: the request and the
// build commit together.
func TestFirstUseOneBatchPerShard(t *testing.T) {
	opts := sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: -1}
	paged := opts
	paged.Paged, paged.CacheBytes = true, 64<<10
	type batchCase struct {
		adjusting
		preLoad, postLoad []string            // run before and after the load
		built             func(p *Proxy) bool // the index the statement must build
	}
	var cases []batchCase
	for _, c := range mixedAdjustments {
		cases = append(cases, batchCase{adjusting: c})
	}
	for _, fu := range firstUses {
		cases = append(cases, batchCase{adjusting: adjusting{fu.name, nil, fu.first}})
	}
	cases = append(cases,
		batchCase{adjusting: adjusting{"range+index", nil, "SELECT id FROM acct WHERE bal BETWEEN 100 AND 500"},
			preLoad: []string{"CREATE INDEX acct_bal ON acct (bal)"},
			built:   func(p *Proxy) bool { return p.Table("acct").Col("bal").idxOrd }},
		batchCase{adjusting: adjusting{"create index", nil, "CREATE INDEX acct_memo ON acct (memo)"},
			postLoad: []string{"SELECT id FROM acct WHERE memo = 'kw01 kw11'"},
			built:    func(p *Proxy) bool { return p.Table("acct").Col("memo").idxEq }})
	for _, dc := range []struct {
		name string
		open func(dir string) (store.Engine, error)
	}{
		{"single", func(dir string) (store.Engine, error) { return single.Open(dir, opts) }},
		{"sharded2", func(dir string) (store.Engine, error) { return sharded.Open(dir, 2, opts) }},
		{"sharded4", func(dir string) (store.Engine, error) { return sharded.Open(dir, 4, opts) }},
		{"paged", func(dir string) (store.Engine, error) { return single.Open(dir, paged) }},
	} {
		for _, c := range cases {
			t.Run(dc.name+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				eng, err := dc.open(dir)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() }) //nolint:errcheck // test teardown
				l := newLifecycle(t, eng, Options{DataDir: dir, Plan: c.plan})
				for _, s := range slices.Concat(deferredDDL, c.preLoad, deferredLoad(30, 300), c.postLoad) {
					l.both(s)
				}
				before := eng.Stats().WAL.Batches
				l.check(c.stmt)
				if got, want := eng.Stats().WAL.Batches-before, int64(2*eng.Shards()-1); got != want {
					t.Fatalf("the statement appended %d WAL batches, want %d (one per shard, and an outcome on each prepared one)", got, want)
				}
				if c.built != nil && !c.built(l.p) {
					t.Fatal("the statement did not build the index")
				}
			})
		}
	}
}

// TestFirstUseFaultWritesNothing: on every topology, a first use whose
// batch one shard refuses part-way leaves no row written on any shard and
// the metadata as it was; the retry fills the column.
func TestFirstUseFaultWritesNothing(t *testing.T) {
	for _, ec := range engineCases {
		for _, fu := range firstUses {
			t.Run(ec.name+"/"+fu.name, func(t *testing.T) {
				fe := &faultyEngine{Engine: ec.open(t)}
				l := newLifecycle(t, fe, Options{})
				l.load(30, 300)
				before := onionState(l.p, fu.onion, fu.cols)
				fe.failAt = fe.listed + 200
				if _, err := l.p.Execute(fu.first); !errors.Is(err, errInjected) {
					t.Fatalf("first use with a refused batch: %v", err)
				}
				if got := onionState(l.p, fu.onion, fu.cols); got != before {
					t.Fatalf("a refused batch changed the metadata: %s, was %s", got, before)
				}
				for _, c := range fu.cols {
					if n := l.stored(c[0], c[1], fu.onion); n != 0 {
						t.Fatalf("a refused batch left %d rows of %s.%s written", n, c[0], c[1])
					}
				}
				l.check(fu.first)
				if c := fu.cols[0]; l.stored(c[0], c[1], fu.onion) != 300 {
					t.Fatal("the retry did not fill the column")
				}
			})
		}
	}
}

// crashEngine simulates a kill -9 inside a sharded first use: once armed,
// it notes the size of every shard's log, forwards one statement list and
// reports a crash, so the proxy runs nothing after it. crash then cuts the
// last shard's log back to its noted size and every other shard's to the
// end of the first batch the list appended there: the state of a crash
// after every other shard logged its prepared part and before the last
// shard, the decider, committed its rows, the blob and the decision.
type crashEngine struct {
	store.Engine
	wals  []string
	armed bool
	sizes []int64
}

var errCrash = errors.New("simulated crash")

func (c *crashEngine) ExecAutonomousListWithMeta(stmts []sqlparser.Statement, meta []byte) (*sqldb.Result, error) {
	if !c.armed {
		return c.Engine.ExecAutonomousListWithMeta(stmts, meta)
	}
	c.armed = false
	c.sizes = nil
	for _, w := range c.wals {
		fi, err := os.Stat(w)
		if err != nil {
			return nil, err
		}
		c.sizes = append(c.sizes, fi.Size())
	}
	if _, err := c.Engine.ExecAutonomousListWithMeta(stmts, meta); err != nil {
		return nil, err
	}
	return nil, errCrash
}

// crash cuts the logs, with the engine closed.
func (c *crashEngine) crash(t *testing.T) {
	t.Helper()
	last := len(c.wals) - 1
	for i, w := range c.wals {
		size := c.sizes[i]
		if i < last {
			data, err := os.ReadFile(w)
			if err != nil {
				t.Fatal(err)
			}
			frames, err := sqldb.SplitFrames(data[size:])
			if err != nil || len(frames) != 2 {
				t.Fatalf("shard %d logged %d batches (%v), want its prepared part and its outcome", i, len(frames), err)
			}
			size += int64(len(frames[0]))
		}
		if err := os.Truncate(w, size); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFirstUseTornAcrossShards: a crash between the prepared parts of a
// sharded first use and the decider's batch recovers the onion still
// deferred, with no shard holding the rows: Open drops every prepared
// part, since no shard recorded the decision. The next use writes the whole
// column and answers like the oracle.
func TestFirstUseTornAcrossShards(t *testing.T) {
	opts := sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: -1}
	rows := map[string]int{"owner": 30, "acct": 300}
	for _, shards := range []int{2, 4} {
		for _, fu := range firstUses {
			t.Run(fmt.Sprintf("sharded%d/%s", shards, fu.name), func(t *testing.T) {
				dir := t.TempDir()
				eng, err := sharded.Open(dir, shards, opts)
				if err != nil {
					t.Fatal(err)
				}
				ce := &crashEngine{Engine: eng}
				for i := 0; i < shards; i++ {
					ce.wals = append(ce.wals, filepath.Join(sharded.ShardDir(dir, i), "wal.log"))
				}
				l := newLifecycle(t, ce, Options{DataDir: dir})
				l.load(30, 300)
				before := onionState(l.p, fu.onion, fu.cols)

				ce.armed = true
				if _, err := l.p.Execute(fu.first); !errors.Is(err, errCrash) {
					t.Fatalf("first use: %v, want the simulated crash", err)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				ce.crash(t)
				eng2, err := sharded.Open(dir, shards, opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng2.Close() }) //nolint:errcheck // test teardown
				if l.p, err = NewOnEngine(eng2, Options{HOMBits: 256, DataDir: dir}); err != nil {
					t.Fatal(err)
				}
				if got := onionState(l.p, fu.onion, fu.cols); got != before {
					t.Fatalf("the restart recovered %s, want %s", got, before)
				}
				for _, c := range fu.cols {
					if n := l.stored(c[0], c[1], fu.onion); n != 0 {
						t.Fatalf("%s.%s: %d of %d rows hold the first use's ciphertexts after the crash, want none", c[0], c[1], n, rows[c[0]])
					}
				}

				l.check(fu.first)
				l.check(fu.second)
				for _, c := range fu.cols {
					if l.deferred(c[0], c[1], fu.onion) || l.stored(c[0], c[1], fu.onion) != rows[c[0]] {
						t.Fatalf("the next use did not fill %s.%s", c[0], c[1])
					}
				}
			})
		}
	}
}

// TestOneBatchMatchesPlaintext: statements whose adjustments share one
// batch answer as a plaintext database does. On one column, a peel of Eq
// commits with the first use of Ord; after HOM increments, a first use of
// Ord is written by the resync, from the same Add plaintext and fresh IV as
// the other onions, and a later peel of Eq follows the resync's rows in the
// batch.
func TestOneBatchMatchesPlaintext(t *testing.T) {
	for _, ec := range engineCases {
		if ec.name == "sharded4" {
			continue
		}
		t.Run(ec.name, func(t *testing.T) {
			l := newLifecycle(t, ec.open(t), Options{})
			l.load(30, 300)
			l.check("SELECT id FROM acct WHERE bal != 17 AND bal < 100")
			l.check("SELECT id, bal FROM acct WHERE bal > 400 AND bal != 437")

			l.both("UPDATE acct SET holder = holder + 3 WHERE id < 150")
			l.check("SELECT id, holder FROM acct WHERE holder BETWEEN 5 AND 20")
			l.both("UPDATE acct SET holder = holder - 1 WHERE id >= 150")
			l.check("SELECT id FROM acct WHERE holder = 7")
			l.check("SELECT a.id, o.name FROM acct a JOIN owner o ON a.holder = o.oid")
			l.check("SELECT COUNT(*), SUM(holder) FROM acct WHERE holder < 12")
			if s := l.p.Table("acct").Col("holder").Onions[onion.Ord]; s.Deferred || s.Current() != onion.OPE {
				t.Fatalf("holder's Ord onion at %s (deferred %v) after the range", s.Current(), s.Deferred)
			}
		})
	}
}
