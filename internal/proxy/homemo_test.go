package proxy

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/hom"
	"repro/internal/crypto/keys"
	"repro/internal/sqldb"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// len reports the entries the memo holds, counting a promoted one twice.
func (m *homMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}

// clear empties the memo, as a fresh proxy's is; its counters keep going.
func (m *homMemo) clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur, m.old = make(map[string]int64), nil
}

// fixedKeyProxy is an in-memory proxy under the committed 256-bit key of
// testdata/parent_datadir, so ciphertexts in a committed fuzz corpus stay
// ciphertexts of its key.
func fixedKeyProxy(tb testing.TB) *Proxy {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parent_datadir", keyFileName))
	if err != nil {
		tb.Fatal(err)
	}
	var kf keyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		tb.Fatal(err)
	}
	hk, err := hom.KeyFromPrimes(new(big.Int).SetBytes(kf.HomP), new(big.Int).SetBytes(kf.HomQ))
	if err != nil {
		tb.Fatal(err)
	}
	mk, err := keys.MasterFromRaw(kf.MasterKey)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := newProxy(single.New(sqldb.New()), mk, hk, Options{HOMBits: kf.HomBits})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// homEdgeBlobs are Add-onion blobs at the edges of DecryptInt64: sums of
// random values, negatives, 0, MaxInt64 and MinInt64, a plaintext past
// int64, a valid ciphertext left-padded past the ciphertext width, a blob
// ≥ n², an empty blob and 300 bytes of 0xff.
func homEdgeBlobs(tb testing.TB, k *hom.Key, rng *rand.Rand) map[string][]byte {
	tb.Helper()
	enc := func(m *big.Int) *big.Int {
		ct, err := k.Encrypt(m)
		if err != nil {
			tb.Fatal(err)
		}
		return ct
	}
	enc64 := func(v int64) *big.Int {
		ct, err := k.EncryptInt64(v)
		if err != nil {
			tb.Fatal(err)
		}
		return ct
	}
	out := map[string][]byte{
		"zero":       k.CiphertextBytes(enc64(0)),
		"negative":   k.CiphertextBytes(enc64(-123456789)),
		"maxint64":   k.CiphertextBytes(enc64(math.MaxInt64)),
		"minint64":   k.CiphertextBytes(enc64(math.MinInt64)),
		"past-int64": k.CiphertextBytes(enc(new(big.Int).Lsh(big.NewInt(1), 63))),
		"n-squared":  k.N2.Bytes(),
		"empty":      {},
		"300-ff":     []byte(strings.Repeat("\xff", 300)),
	}
	padded := make([]byte, 300)
	ct := k.CiphertextBytes(enc64(77))
	copy(padded[300-len(ct):], ct)
	out["300-padded"] = padded
	for i := 0; i < 4; i++ {
		sum, want := enc64(0), int64(0)
		for j := 0; j < 5; j++ {
			v := rng.Int63n(2_000_000) - 1_000_000
			sum, want = k.Add(sum, enc64(v)), want+v
		}
		out[fmt.Sprintf("sum%d=%d", i, want)] = k.CiphertextBytes(sum)
	}
	return out
}

// sameAsDirect checks one memoised decryptAdd against DecryptInt64 of the
// same bytes: equal value, or equal error text.
func sameAsDirect(p *Proxy, b []byte) error {
	want, wantErr := p.homKey.DecryptInt64(p.homKey.CiphertextFromBytes(b))
	got, err := p.decryptAdd(nil, sqldb.Blob(b))
	switch {
	case (err != nil) != (wantErr != nil):
		return fmt.Errorf("memoised error %v, direct error %v", err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		return fmt.Errorf("memoised error %q, direct error %q", err, wantErr)
	case err == nil && (got.Kind != sqldb.KindInt || got.I != want):
		return fmt.Errorf("memoised %v, direct %d", got, want)
	}
	return nil
}

// TestHOMMemoMatchesDecrypt: on every edge blob, the memoised decryptAdd
// gives DecryptInt64's value or error text on the first call and on the
// second. A success is decrypted once; an error, and a blob wider than a
// ciphertext, are decrypted on every call and never stored.
func TestHOMMemoMatchesDecrypt(t *testing.T) {
	p := newTestProxy(t)
	blobs := homEdgeBlobs(t, p.homKey, rand.New(rand.NewSource(1)))
	for name, b := range blobs {
		t.Run(name, func(t *testing.T) {
			_, directErr := p.homKey.DecryptInt64(p.homKey.CiphertextFromBytes(b))
			before := p.Stats()
			for call := 1; call <= 2; call++ {
				if err := sameAsDirect(p, b); err != nil {
					t.Fatalf("call %d: %v", call, err)
				}
			}
			after := p.Stats()
			decrypts, hits := after.HOMDecrypts-before.HOMDecrypts, after.HOMMemoHits-before.HOMMemoHits
			wantDecrypts, wantHits := int64(1), int64(1)
			if directErr != nil || len(b) > p.homMemo.width {
				wantDecrypts, wantHits = 2, 0
			}
			if decrypts != wantDecrypts || hits != wantHits {
				t.Fatalf("decrypts %d hits %d, want %d and %d (direct error: %v)",
					decrypts, hits, wantDecrypts, wantHits, directErr)
			}
		})
	}
	for _, name := range []string{"past-int64", "n-squared", "empty", "300-ff"} {
		if _, err := p.homKey.DecryptInt64(p.homKey.CiphertextFromBytes(blobs[name])); err == nil {
			t.Errorf("edge blob %s decrypts without error; it should exercise the error path", name)
		}
	}
	before := p.Stats()
	if v, err := p.decryptAdd(nil, sqldb.Null()); err != nil || !v.IsNull() {
		t.Fatalf("NULL decrypts to %v, %v", v, err)
	}
	if after := p.Stats(); after.HOMDecrypts != before.HOMDecrypts || after.HOMMemoHits != before.HOMMemoHits {
		t.Fatalf("NULL reached the memo: %+v -> %+v", before, after)
	}
}

// TestHOMMemoBounded: ten times the memo's capacity of distinct
// ciphertexts flow through it and it never holds more than two
// generations; an entry read at least once a generation stays a hit. The
// modulus is the smallest hom allows: only the count of entries matters.
func TestHOMMemoBounded(t *testing.T) {
	p, err := New(sqldb.New(), Options{HOMBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	m, k := p.homMemo, p.homKey
	hot := k.CiphertextBytes(k.AddPlain(big.NewInt(1), -5)) // Enc(-5) with r = 1
	if v, err := m.decrypt(hot); err != nil || v != -5 {
		t.Fatalf("hot decrypts to %d, %v", v, err)
	}
	bound := 2 * homMemoGen
	ct := big.NewInt(1)
	step := new(big.Int).Add(k.N, big.NewInt(1)) // g: ct·g encrypts one more
	for i := 1; i <= 10*bound; i++ {
		ct.Mul(ct, step).Mod(ct, k.N2)
		if v, err := m.decrypt(k.CiphertextBytes(ct)); err != nil || v != int64(i) {
			t.Fatalf("ciphertext %d decrypts to %d, %v", i, v, err)
		}
		if n := m.len(); n > bound {
			t.Fatalf("after %d ciphertexts the memo holds %d entries, bound %d", i, n, bound)
		}
		if i%(homMemoGen/4) == 0 {
			hits := m.hits.Load()
			if v, err := m.decrypt(hot); err != nil || v != -5 || m.hits.Load() != hits+1 {
				t.Fatalf("after %d ciphertexts the hot entry missed (%d, %v)", i, v, err)
			}
		}
	}
	if got, want := m.decrypts.Load(), int64(10*bound+1); got != want {
		t.Fatalf("decrypts = %d, want %d", got, want)
	}
}

// TestHOMMemoConcurrent: over a 2-shard store, eight sessions run a grouped
// SUM while one session inserts into every group. Each inserted row of a
// group carries the same amount, so whichever inserts a read sees, a
// group's SUM must equal the plaintext oracle's base sum plus that amount
// per extra row; once the inserts stop, the result equals the oracle's.
func TestHOMMemoConcurrent(t *testing.T) {
	const groups, baseRows, inserts, readers, reads = 8, 200, 48, 8, 12
	p, err := NewOnEngine(sharded.New(2), Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	oracle := sqldb.New()
	both := func(sql string) {
		t.Helper()
		mustExec(t, p, sql)
		if _, err := oracle.ExecSQL(sql); err != nil {
			t.Fatalf("oracle %s: %v", sql, err)
		}
	}
	both("CREATE TABLE t (id INT, grp INT, amt INT)")
	rng := rand.New(rand.NewSource(7))
	var vals []string
	for i := 0; i < baseRows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%groups, rng.Intn(20001)-10000))
	}
	both("INSERT INTO t (id, grp, amt) VALUES " + strings.Join(vals, ", "))

	const q = "SELECT grp, COUNT(*), SUM(amt) FROM t GROUP BY grp"
	type agg struct{ count, sum int64 }
	tally := func(res *sqldb.Result) map[int64]agg {
		out := make(map[int64]agg)
		for _, r := range res.Rows {
			out[r[0].I] = agg{r[1].I, r[2].I}
		}
		return out
	}
	res, err := oracle.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	base := tally(res)
	mustExec(t, p, q) // materialises the Add onion before the race starts
	delta := func(g int64) int64 { return 1000*g - 3500 }

	hitsBefore := p.Stats().HOMMemoHits
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := p.NewSession()
		defer s.Close()
		for i := 0; i < inserts; i++ {
			g := int64(i % groups)
			if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, grp, amt) VALUES (%d, %d, %d)", baseRows+i, g, delta(g))); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.NewSession()
			defer s.Close()
			for i := 0; i < reads; i++ {
				res, err := s.Execute(q)
				if err != nil {
					errs <- err
					return
				}
				got := tally(res)
				if len(got) != groups {
					errs <- fmt.Errorf("read %d: %d groups, want %d", i, len(got), groups)
					return
				}
				for g, a := range got {
					b := base[g]
					if want := b.sum + (a.count-b.count)*delta(g); a.count < b.count || a.sum != want {
						errs <- fmt.Errorf("group %d: count %d sum %d, want sum %d (base %+v)", g, a.count, a.sum, want, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < inserts; i++ {
		g := i % groups
		if _, err := oracle.ExecSQL(fmt.Sprintf("INSERT INTO t (id, grp, amt) VALUES (%d, %d, %d)", baseRows+i, g, delta(int64(g)))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := oracle.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustExec(t, p, q); sortedRows(got) != sortedRows(want) {
		t.Fatalf("final result\n%s\nwant\n%s", sortedRows(got), sortedRows(want))
	}
	if p.Stats().HOMMemoHits == hitsBefore {
		t.Fatal("no read was answered from the memo")
	}
}

// TestStatsConcurrentWithProxyLock: Stats takes no proxy lock, so it
// returns while another goroutine holds p.mu either way; and snapshots
// taken while sessions run count every query and every HOM decryption.
func TestStatsConcurrentWithProxyLock(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE t (a INT)")
	mustExec(t, p, "INSERT INTO t (a) VALUES (1), (2), (3)")
	mustExec(t, p, "SELECT SUM(a) FROM t")

	for _, lock := range []struct {
		name         string
		lock, unlock func()
	}{
		{"Lock", p.mu.Lock, p.mu.Unlock},
		{"RLock", p.mu.RLock, p.mu.RUnlock},
	} {
		lock.lock()
		done := make(chan Stats)
		go func() { done <- p.Stats() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Stats blocked while p.mu.%s was held", lock.name)
		}
		lock.unlock()
	}

	const workers, each = 4, 25
	before := p.Stats()
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		last := before
		for {
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
			s := p.Stats()
			if s.Queries < last.Queries || s.HOMDecrypts < last.HOMDecrypts || s.HOMMemoHits < last.HOMMemoHits {
				polled <- fmt.Errorf("counters went backwards: %+v -> %+v", last, s)
				return
			}
			last = s
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.NewSession()
			defer s.Close()
			for i := 0; i < each; i++ {
				if res, err := s.Execute("SELECT SUM(a) FROM t"); err != nil || res.Rows[0][0].I != 6 {
					t.Errorf("SUM = %v, %v", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	after := p.Stats()
	if got := after.Queries - before.Queries; got != workers*each {
		t.Errorf("queries counted %d, ran %d", got, workers*each)
	}
	if got := (after.HOMDecrypts + after.HOMMemoHits) - (before.HOMDecrypts + before.HOMMemoHits); got != workers*each {
		t.Errorf("HOM decryptions counted %d, ran %d", got, workers*each)
	}
	if after.HOMDecrypts != before.HOMDecrypts {
		t.Errorf("an unchanged SUM ran Paillier %d more times", after.HOMDecrypts-before.HOMDecrypts)
	}
}

// FuzzDecryptAdd: the Add blob is bytes the server hands back. On any
// bytes, memoised decryptAdd agrees with DecryptInt64 in value and in
// error text, on the first call and on the second.
func FuzzDecryptAdd(f *testing.F) {
	p := fixedKeyProxy(f)
	for _, b := range homEdgeBlobs(f, p.homKey, rand.New(rand.NewSource(2))) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for call := 1; call <= 2; call++ {
			if err := sameAsDirect(p, b); err != nil {
				t.Fatalf("call %d on %x: %v", call, b, err)
			}
		}
	})
}

// BenchmarkGroupedHomSum: a grouped SUM over 1000 rows in 8 groups at the
// default 1024-bit modulus, the analytic mix's groupby shape. cold empties
// the memo before each run (a fresh proxy), warm repeats the query, and
// insert adds one row to one group between runs. decrypts/op counts
// Paillier decryptions: 8, 0 and 1.
func BenchmarkGroupedHomSum(b *testing.B) {
	const rows, groups = 1000, 8
	p, err := New(sqldb.New(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Execute("CREATE TABLE t (id INT, grp INT, amt INT)"); err != nil {
		b.Fatal(err)
	}
	var vals []string
	for i := 0; i < rows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%groups, (i*7919)%1000))
	}
	if _, err := p.Execute("INSERT INTO t (id, grp, amt) VALUES " + strings.Join(vals, ", ")); err != nil {
		b.Fatal(err)
	}
	const q = "SELECT grp, COUNT(*), SUM(amt) FROM t GROUP BY grp"
	query := func(b *testing.B) {
		res, err := p.Execute(q)
		if err != nil || len(res.Rows) != groups {
			b.Fatalf("%s: %d rows, %v", q, len(res.Rows), err)
		}
	}
	query(b) // materialises the Add onion
	next := rows
	for _, arm := range []struct {
		name   string
		before func(b *testing.B)
	}{
		{"cold", func(*testing.B) { p.homMemo.clear() }},
		{"warm", func(*testing.B) {}},
		{"insert", func(b *testing.B) {
			if _, err := p.Execute(fmt.Sprintf("INSERT INTO t (id, grp, amt) VALUES (%d, %d, 1)", next, next%groups)); err != nil {
				b.Fatal(err)
			}
			next++
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			query(b)
			d0 := p.Stats().HOMDecrypts
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				arm.before(b)
				b.StartTimer()
				query(b)
			}
			b.StopTimer()
			b.ReportMetric(float64(p.Stats().HOMDecrypts-d0)/float64(b.N), "decrypts/op")
		})
	}
}
