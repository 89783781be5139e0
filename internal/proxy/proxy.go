package proxy

import (
	"fmt"
	"math/big"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/crypto/hom"
	"repro/internal/crypto/joinadj"
	"repro/internal/crypto/keys"
	"repro/internal/crypto/search"
	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/single"
)

// Options configures a Proxy.
type Options struct {
	// HOMBits is the Paillier modulus size; the paper's 1024 (2048-bit
	// ciphertexts) is the default. Tests may shrink it.
	HOMBits int
	// DisableOPECache turns off the OPE node cache (for the ablation
	// benchmark reproducing the paper's 25 ms -> 7 ms improvement).
	DisableOPECache bool
	// BatchWorkers bounds the worker pool of the batched encryption
	// pipeline: multi-row INSERT encryption and result-set decryption fan
	// per-row onion work across this many goroutines, after each column's
	// Ord-onion plaintexts are pre-encrypted through ope.EncryptBatch so
	// the sorted traversal shares node-cache prefixes (§3.1's "AVL binary
	// search trees for batch encryption, e.g., database loads"). Row
	// ordering of statements and results is unaffected.
	//
	// 0 (the default) uses runtime.GOMAXPROCS(0) workers; 1 runs all
	// per-row work serially on the calling goroutine, as the seed did
	// (the ablation baseline). Values larger than the row count are
	// clamped. The ope.EncryptBatch pre-pass applies to any multi-row
	// INSERT independent of this knob (disable it with DisableOPECache);
	// ciphertexts and row order are identical on every setting.
	BatchWorkers int
	// DisableInProxySort sends ORDER BY without LIMIT to the server
	// (revealing OPE) instead of sorting decrypted results in the proxy
	// (§3.5.1). In-proxy sorting is the default, as in the paper's
	// analysis.
	DisableInProxySort bool
	// ASTCacheSize bounds the LRU cache of parsed statements keyed by SQL
	// text, so repeated statements skip the parser. 0 uses the default
	// (1024 entries); a negative value disables caching.
	ASTCacheSize int
	// Training makes the proxy analyze and record onion adjustments
	// without encrypting or executing anything (§3.5.1 training mode).
	Training bool
	// Plan is the developer's a-priori statement of the query set (§3.5.2
	// "known query set"), per column: an onion the column's entry lists is
	// present from the first row, an onion it omits is discarded and a
	// query needing it is refused (the error names table, column and
	// onion). A column with no entry — every column when Plan is nil —
	// declares every applicable onion, writes only Eq, and materialises
	// each other onion on the first query that needs it. Derive a plan
	// with TrainPlan.
	Plan OnionPlan
	// DataDir makes the proxy durable: key material (master key, Paillier
	// primes) is loaded from — or, on first use, generated into —
	// <DataDir>/proxy-keys.json, and all schema/onion metadata is sealed
	// and committed through the DBMS write-ahead log, atomically with the
	// server-side statements that change it (see persist.go). The same
	// directory is normally also the sqldb data dir, so one directory
	// fully captures a restartable instance. Empty means in-memory (the
	// default; restarting loses everything, as the seed did).
	DataDir string
}

// PrincipalCrypto is the hook the multi-principal layer (package mp)
// installs to handle ENC FOR columns: values encrypted under per-principal
// keys rather than the proxy master key (§4).
type PrincipalCrypto interface {
	// EncryptFor encrypts v for the principal (ptype, pname).
	EncryptFor(ptype, pname, table, col string, v sqldb.Value) (sqldb.Value, error)
	// DecryptFor decrypts a value encrypted for (ptype, pname), using
	// only keys reachable from currently logged-in users.
	DecryptFor(ptype, pname, table, col string, v sqldb.Value) (sqldb.Value, error)
}

// Stats counts proxy work for the evaluation harness. The counters on the
// live Proxy are updated atomically (steady-state queries bump them under
// the read lock, concurrently), so a Stats snapshot is safe to take from
// any goroutine.
type Stats struct {
	Queries          int64
	OnionAdjustments int64
	Resyncs          int64
	InProxySorts     int64
	ASTCacheHits     int64
	ASTCacheMisses   int64
	// HOMDecrypts counts Add-onion decryptions that ran Paillier (memo
	// misses, failed ones included); HOMMemoHits those the memo answered.
	HOMDecrypts int64
	HOMMemoHits int64
	// Server reports how the storage engine executed the proxy's rewritten
	// statements (access paths, join strategy, grouped scatter pushdowns),
	// summed across shards.
	Server sqldb.PlanCounters
}

// Proxy is a single-principal CryptDB proxy bound to one storage engine —
// a single embedded DBMS (store/single) or a hash-partitioned set of them
// (store/sharded); the proxy speaks only the store.Engine/Conn surface
// either way. Queries that require no onion adjustment (the trained steady
// state) run under a read lock and execute concurrently; adjustments
// serialize under the write lock.
type Proxy struct {
	mu sync.RWMutex

	db store.Engine
	mk *keys.Master

	tables map[string]*TableMeta
	nTab   int

	homKey  *hom.Key
	homMemo *homMemo // decryptions of homKey ciphertexts, by their bytes
	joinPRF []byte   // K0 shared by all JOIN-ADJ columns (§3.4)

	opts     Options
	stats    Stats
	astCache *astCache // nil when disabled

	// sessions tracks every live Session (guarded by sessMu) so onion
	// adjustments can detect conflicts with open transactions; defSess is
	// the lazily created session behind the sessionless Execute API.
	sessMu   sync.Mutex
	sessions map[*Session]struct{}
	defOnce  sync.Once
	defSess  *Session

	// dataDir is non-empty for a durable proxy; metaMu serializes sealed
	// metadata snapshots with the WAL appends that carry them, so blob
	// order on disk matches state order in memory (see persist.go).
	dataDir string
	metaMu  sync.Mutex

	// replica is non-nil when the engine is a replication follower: the
	// proxy then serves reads only and refreshes its metadata from the
	// replicated stream (see replica.go). replicaGen is the engine
	// MetaGeneration the current p.tables was unsealed from (atomic).
	replica    store.Replica
	replicaGen uint64

	// training-mode log of would-be adjustments.
	trainLog []TrainEvent

	princ PrincipalCrypto
}

// TrainEvent records one onion adjustment or warning observed in training
// mode (§3.5.1).
type TrainEvent struct {
	Table, Column string
	Onion         onion.Onion
	Layer         onion.Layer
	Warning       string // non-empty for unsupported queries
}

// New creates a proxy in front of one embedded database — the seed's
// topology, wrapped in a store/single engine. Without Options.DataDir it
// uses a fresh master key and lives only as long as the process. With
// DataDir it is durable: key material is loaded (or generated once) from
// the key file, and table/column/onion metadata recovered through the DBMS
// is restored, so a restarted proxy decrypts everything its predecessor
// stored and remembers every onion adjustment it made.
func New(db *sqldb.DB, opts Options) (*Proxy, error) {
	return NewOnEngine(single.New(db), opts)
}

// NewOnEngine creates a proxy over any storage engine (store/single,
// store/sharded, or a future backend adapter). Semantics of Options.DataDir
// match New; the engine's own durability is configured when the engine is
// opened.
func NewOnEngine(eng store.Engine, opts Options) (*Proxy, error) {
	if opts.DataDir == "" {
		mk, err := keys.NewMaster()
		if err != nil {
			return nil, err
		}
		return newWithMaster(eng, mk, opts)
	}
	return openPersistent(eng, opts)
}

// NewWithMaster creates an in-memory proxy with explicit master key
// material (multi-principal mode derives sub-proxies this way).
func NewWithMaster(db *sqldb.DB, mk *keys.Master, opts Options) (*Proxy, error) {
	return newWithMaster(single.New(db), mk, opts)
}

func newWithMaster(eng store.Engine, mk *keys.Master, opts Options) (*Proxy, error) {
	if opts.HOMBits == 0 {
		opts.HOMBits = hom.DefaultBits
	}
	hk, err := hom.GenerateKey(opts.HOMBits)
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	return newProxy(eng, mk, hk, opts)
}

// openPersistent builds a durable proxy from (or initializing) a data dir.
func openPersistent(db store.Engine, opts Options) (*Proxy, error) {
	dir := opts.DataDir
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("proxy: creating data dir: %w", err)
	}
	kf, fresh, err := loadOrCreateKeyFile(dir, opts.HOMBits)
	if err != nil {
		return nil, err
	}
	rep, _ := db.(store.Replica)
	if fresh && rep != nil {
		// A follower must decrypt blobs sealed by the primary's proxy;
		// generating fresh keys here would silently produce a proxy that
		// can never unseal anything. The operator copies the primary's
		// key file when provisioning the replica.
		return nil, fmt.Errorf("proxy: replica data dir %s has no %s — copy it from the primary", dir, keyFileName)
	}
	if fresh {
		if db.Meta() != nil {
			return nil, fmt.Errorf("proxy: %s has database state but no %s — the key file is required to decrypt it", dir, keyFileName)
		}
		mk, err := keys.NewMaster()
		if err != nil {
			return nil, err
		}
		bits := opts.HOMBits
		if bits == 0 {
			bits = hom.DefaultBits
		}
		hk, err := hom.GenerateKey(bits)
		if err != nil {
			return nil, fmt.Errorf("proxy: %w", err)
		}
		hp, hq, _ := hk.Primes()
		if err := writeKeyFile(dir, &keyFile{
			Version: 1, MasterKey: mk.Bytes(), HomBits: bits,
			HomP: hp.Bytes(), HomQ: hq.Bytes(),
		}); err != nil {
			return nil, err
		}
		opts.HOMBits = bits
		p, err := newProxy(db, mk, hk, opts)
		if err != nil {
			return nil, err
		}
		p.dataDir = dir
		return p, nil
	}

	mk, err := keys.MasterFromRaw(kf.MasterKey)
	if err != nil {
		return nil, err
	}
	hk, err := hom.KeyFromPrimes(new(big.Int).SetBytes(kf.HomP), new(big.Int).SetBytes(kf.HomQ))
	if err != nil {
		return nil, fmt.Errorf("proxy: restoring Paillier key: %w", err)
	}
	opts.HOMBits = kf.HomBits
	p, err := newProxy(db, mk, hk, opts)
	if err != nil {
		return nil, err
	}
	p.dataDir = dir
	if rep != nil {
		// Record the generation before reading the blob: a transition
		// between the two reads leaves replicaGen stale, so the first
		// query reloads — never the reverse.
		p.replica = rep
		atomic.StoreUint64(&p.replicaGen, rep.MetaGeneration())
	}
	if sealed := db.Meta(); sealed != nil {
		if err := p.restoreState(sealed); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// newProxy assembles a proxy around existing key material.
func newProxy(db store.Engine, mk *keys.Master, hk *hom.Key, opts Options) (*Proxy, error) {
	p := &Proxy{
		db:       db,
		mk:       mk,
		tables:   make(map[string]*TableMeta),
		homKey:   hk,
		homMemo:  newHOMMemo(hk),
		joinPRF:  mk.DeriveLabel("joinadj-shared-prf"),
		opts:     opts,
		sessions: make(map[*Session]struct{}),
	}
	if opts.ASTCacheSize >= 0 {
		size := opts.ASTCacheSize
		if size == 0 {
			size = 1024
		}
		p.astCache = newASTCache(size)
	}
	p.registerUDFs()
	return p, nil
}

// Engine exposes the storage engine the proxy speaks to.
func (p *Proxy) Engine() store.Engine { return p.db }

// DB exposes the underlying embedded DBMS when the proxy runs over a
// single-instance engine (the evaluation harness and tests inspect
// server-visible state through it). Returns nil over a sharded engine —
// use Engine and its introspection instead.
func (p *Proxy) DB() *sqldb.DB {
	if u, ok := p.db.(interface{ DB() *sqldb.DB }); ok {
		return u.DB()
	}
	return nil
}

// HOMKey exposes the Paillier key (package mp and benchmarks need the
// public part).
func (p *Proxy) HOMKey() *hom.Key { return p.homKey }

// SetPrincipalCrypto installs the multi-principal hook.
func (p *Proxy) SetPrincipalCrypto(pc PrincipalCrypto) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.princ = pc
}

// Stats returns a snapshot of the proxy's counters. It takes no proxy lock:
// every counter is atomic or behind its own cache's mutex, and astCache and
// homMemo are fixed at construction, so reading stats never waits for (or
// stalls) a query.
func (p *Proxy) Stats() Stats {
	out := Stats{
		Queries:          atomic.LoadInt64(&p.stats.Queries),
		OnionAdjustments: atomic.LoadInt64(&p.stats.OnionAdjustments),
		Resyncs:          atomic.LoadInt64(&p.stats.Resyncs),
		InProxySorts:     atomic.LoadInt64(&p.stats.InProxySorts),
		HOMDecrypts:      p.homMemo.decrypts.Load(),
		HOMMemoHits:      p.homMemo.hits.Load(),
	}
	out.Server = p.db.Stats().Plan
	if p.astCache != nil {
		out.ASTCacheHits, out.ASTCacheMisses = p.astCache.counters()
	}
	return out
}

// TrainingLog returns the events recorded in training mode.
func (p *Proxy) TrainingLog() []TrainEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TrainEvent, len(p.trainLog))
	copy(out, p.trainLog)
	return out
}

// Table exposes a table's metadata (read-only use).
func (p *Proxy) Table(logical string) *TableMeta {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tables[logical]
}

//
// Server-side UDFs (§7: "we implement all server-side functionality with
// UDFs and server-side tables").
//

func (p *Proxy) registerUDFs() {
	// decrypt_rnd(key, ct, iv) strips one RND layer; works for both the
	// 64-bit integer form and the byte form based on argument kind.
	p.db.RegisterUDF("decrypt_rnd", udfDecryptRND)

	// join_adj(val, delta) re-keys one JOIN-ADJ value (§3.4).
	p.db.RegisterUDF("join_adj", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Value{}, fmt.Errorf("join_adj: want 2 args")
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		delta := new(big.Int).SetBytes(args[1].B)
		out, err := joinadj.Adjust(args[0].B, delta)
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Blob(out), nil
	})

	// searchswp(blob, token) implements encrypted LIKE (§3.1). A statement
	// passes the same token for every row, so the token's HMAC key
	// schedule is derived once and reused.
	var matchers matcherCache
	p.db.RegisterUDF("searchswp", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Value{}, fmt.Errorf("searchswp: want 2 args")
		}
		if args[0].IsNull() {
			return sqldb.Bool(false), nil
		}
		return sqldb.Bool(matchers.get(args[1].B).Match(args[0].B)), nil
	})

	// hom_add(ct1, ct2) multiplies Paillier ciphertexts: the UPDATE
	// ... SET x = x + k path (§3.3).
	n2 := new(big.Int).Set(p.homKey.N2)
	products := sync.Pool{New: func() any { return new(homProduct) }}
	p.db.RegisterUDF("hom_add", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Value{}, fmt.Errorf("hom_add: want 2 args")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		h := products.Get().(*homProduct)
		defer products.Put(h)
		h.acc.SetBytes(args[0].B)
		h.mul(args[1].B, n2)
		return sqldb.Blob(fixedBytes(&h.acc, n2)), nil
	})

	// hom_sum(ct) aggregates a HOM column by ciphertext multiplication:
	// the server-side SUM replacement (§3.1).
	p.db.RegisterAggUDF("hom_sum", func() sqldb.AggState {
		s := &homSumState{n2: n2}
		s.acc.SetInt64(1)
		return s
	})
}

// matcherCache maps a SEARCH token to its search.Matcher for the
// searchswp UDF, so a LIKE derives its token's key schedule once rather
// than once per row. Sessions and shards share it; it is cleared when it
// reaches matcherCacheSize tokens.
type matcherCache struct {
	mu sync.Mutex
	m  map[string]*search.Matcher
}

const matcherCacheSize = 64

func (c *matcherCache) get(token []byte) *search.Matcher {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.m[string(token)]; ok {
		return m
	}
	if c.m == nil || len(c.m) >= matcherCacheSize {
		c.m = make(map[string]*search.Matcher, matcherCacheSize)
	}
	m := search.NewMatcher(token)
	c.m[string(token)] = m
	return m
}

// homMemo maps an Add-onion ciphertext's exact bytes to its plaintext, so
// the proxy runs Paillier decryption once per distinct ciphertext. The
// server's hom_sum of a group is a product mod n², the same bytes in any
// row order, on one store or across shards, until a write lands in the
// group; without the memo every GROUP BY … SUM would decrypt each group
// again. Decryption is a pure function of the bytes under the proxy's one
// key, so an answer from the memo is the answer DecryptInt64 gives.
//
// It holds two generations of at most homMemoGen entries: a hit in the old
// one is copied into the current one, and a full current generation
// becomes the old one, dropping the previous old. Only successful
// decryptions of blobs no wider than a ciphertext are stored, so an error
// is recomputed (and returned) on every call and a full memo is 2.5 MB at
// 1024 bits. Sessions, shards and forEachRow workers share one memo.
type homMemo struct {
	key   *hom.Key
	width int // bytes of a ciphertext, (bits of n²)/8

	mu       sync.Mutex
	cur, old map[string]int64

	decrypts, hits atomic.Int64
}

const homMemoGen = 4096

func newHOMMemo(k *hom.Key) *homMemo {
	return &homMemo{
		key:   k,
		width: (k.N2.BitLen() + 7) / 8,
		cur:   make(map[string]int64),
	}
}

// decrypt returns DecryptInt64 of the ciphertext blob b.
func (m *homMemo) decrypt(b []byte) (int64, error) {
	if v, ok := m.lookup(b); ok {
		m.hits.Add(1)
		return v, nil
	}
	m.decrypts.Add(1)
	v, err := m.key.DecryptInt64(m.key.CiphertextFromBytes(b))
	if err == nil && len(b) <= m.width {
		m.mu.Lock()
		m.store(string(b), v)
		m.mu.Unlock()
	}
	return v, err
}

func (m *homMemo) lookup(b []byte) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.cur[string(b)]; ok {
		return v, true
	}
	v, ok := m.old[string(b)]
	if ok {
		m.store(string(b), v)
	}
	return v, ok
}

// store adds an entry to the current generation; m.mu must be held.
func (m *homMemo) store(k string, v int64) {
	if len(m.cur) >= homMemoGen {
		m.old, m.cur = m.cur, make(map[string]int64, homMemoGen)
	}
	m.cur[k] = v
}

func fixedBytes(v, n2 *big.Int) []byte {
	return v.FillBytes(make([]byte, (n2.BitLen()+7)/8))
}

// homProduct multiplies Paillier ciphertexts into acc modulo n². Its
// temporaries are reused, so once they have grown to the modulus a
// product allocates nothing.
type homProduct struct {
	acc, c, prod, quo big.Int
}

// mul sets acc = acc · ct mod n2.
func (h *homProduct) mul(ct []byte, n2 *big.Int) {
	h.c.SetBytes(ct)
	h.prod.Mul(&h.acc, &h.c)
	h.quo.QuoRem(&h.prod, n2, &h.acc)
}

type homSumState struct {
	homProduct
	n2  *big.Int
	any bool
}

func (s *homSumState) Step(args []sqldb.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("hom_sum: want 1 arg")
	}
	if args[0].IsNull() {
		return nil
	}
	s.mul(args[0].B, s.n2)
	s.any = true
	return nil
}

func (s *homSumState) Final() (sqldb.Value, error) {
	if !s.any {
		return sqldb.Null(), nil
	}
	return sqldb.Blob(fixedBytes(&s.acc, s.n2)), nil
}

func udfDecryptRND(args []sqldb.Value) (sqldb.Value, error) {
	if len(args) != 3 {
		return sqldb.Value{}, fmt.Errorf("decrypt_rnd: want 3 args (key, ct, iv)")
	}
	key := args[0].B
	if args[1].IsNull() || args[2].IsNull() {
		return sqldb.Null(), nil
	}
	iv := args[2].B
	switch args[1].Kind {
	case sqldb.KindInt:
		pt, err := rndDecryptUint64(key, iv, uint64(args[1].I))
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Int(int64(pt)), nil
	case sqldb.KindBlob:
		pt, err := rndDecryptBytes(key, iv, args[1].B)
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Blob(pt), nil
	}
	return sqldb.Value{}, fmt.Errorf("decrypt_rnd: unsupported ciphertext kind %s", args[1].Kind)
}
