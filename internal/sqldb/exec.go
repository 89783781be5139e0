package sqldb

// This file is the compiled execution pipeline: the operator chain a
// lowered SELECT (compile.go) runs through. Rows flow in batches of up to
// 256 tuples from a scan source through hash-join / nested-loop operators
// into a consumer that filters, groups, sorts and projects with compiled
// closures — no AST walking per row. A single-table plan skips the batches:
// its access path feeds the consumer one row at a time (eachTuple), which
// is how an index-ordered walk stops at its LIMIT. It is the only SELECT
// executor in the binary, index-ordered reads included; the equivalence
// tests hold it to the row-at-a-time reference interpreter in
// interp_test.go.

import (
	"errors"
	"math"
	"sort"
)

// batchSize is the number of tuples per pipeline batch: small enough to
// stay cache-resident, large enough to amortize per-batch overhead.
const batchSize = 256

// nextChunk sizes the next chunk that tuples or result rows are carved
// from, in rows, after one of prev rows: one row first, then double the
// last, up to batchSize. A statement allocates in proportion to the rows
// that arrive, and a long one still pays one allocation per batchSize rows.
func nextChunk(prev int) int { return min(max(2*prev, 1), batchSize) }

// rowSource produces joined tuples in batches. The emit callback must not
// retain the batch slice (it is reused), though it may retain the tuples.
type rowSource interface {
	run(emit func([]tuple) error) error
}

// constSource yields the single empty tuple of a FROM-less SELECT.
type constSource struct{}

func (constSource) run(emit func([]tuple) error) error { return emit([]tuple{nil}) }

// batcher accumulates tuples and flushes them downstream in batches of at
// most batchSize. Both buffers are sized by the tuples that arrive: the
// batch slice grows by append and keeps its capacity across flushes, and
// tuple backing storage is carved from chunks sized by nextChunk, so a
// statement that joins a few rows allocates for a few rows.
type batcher struct {
	ntabs int
	emit  func([]tuple) error
	buf   []tuple
	mem   [][]Value
	chunk int // tuples in the last chunk carved into mem
}

func newBatcher(ntabs int, emit func([]tuple) error) *batcher {
	return &batcher{ntabs: ntabs, emit: emit}
}

// newTuple allocates an ntabs-wide tuple from the current chunk.
func (b *batcher) newTuple() tuple {
	if len(b.mem) < b.ntabs {
		b.chunk = nextChunk(b.chunk)
		b.mem = make([][]Value, b.ntabs*b.chunk)
	}
	t := b.mem[:b.ntabs:b.ntabs]
	b.mem = b.mem[b.ntabs:]
	return t
}

func (b *batcher) add(t tuple) error {
	b.buf = append(b.buf, t)
	if len(b.buf) >= batchSize {
		return b.flush()
	}
	return nil
}

func (b *batcher) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	err := b.emit(b.buf)
	b.buf = b.buf[:0]
	return err
}

// scanSource streams one table through its planned access path.
type scanSource struct {
	t     *Table
	acc   access
	ti    int
	ntabs int
}

func (s *scanSource) run(emit func([]tuple) error) error {
	b := newBatcher(s.ntabs, emit)
	err := s.acc.iterate(s.t, func(_ int, row []Value) error {
		tup := b.newTuple()
		tup[s.ti] = row
		return b.add(tup)
	})
	if err != nil {
		return err
	}
	return b.flush()
}

// joinKey is one column of a hash join's equi key: an expression evaluated
// against the probe stream and a column position on the build table.
type joinKey struct {
	probe    compiledExpr
	buildPos int
}

// hashJoinSource joins the inner stream against table ti: the table's rows
// (bounded by its own sarg-pruned access path) are hashed once on the equi
// key, then each probe tuple's key values are hashed once and matched, with
// the coercion semantics probeTuple describes.
type hashJoinSource struct {
	db       *DB
	inner    rowSource
	t        *Table
	ti       int
	ntabs    int
	acc      access
	keys     []joinKey
	residual compiledExpr // remaining ON conjuncts, nil if none
	params   []Value
}

// pairFunc returns the emit step shared by the probe paths: join the build
// row into a fresh tuple, apply the residual ON filter, batch.
func (h *hashJoinSource) pairFunc(out *batcher, rev *execEnv) func(tuple, []Value) error {
	return func(tup tuple, brow []Value) error {
		nt := out.newTuple()
		copy(nt, tup)
		nt[h.ti] = brow
		if h.residual != nil {
			rev.tup = nt
			v, err := h.residual(rev)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
		return out.add(nt)
	}
}

// builtTable is one hash join's prepared build side. Either a borrowed
// persistent hash index (idx != nil: the build side is an unpruned full
// scan over a single indexed key column, so the index *is* the build
// table) or a transient map built from the access path.
type builtTable struct {
	// Index mode.
	idx      *hashIndex
	idxKind  Kind
	idxHomog bool

	// Build mode.
	m           map[string][][]Value // encoded key -> build rows, slot order
	rows        [][]Value            // build rows with a fully non-NULL key, slot order
	buildKinds  []Kind
	homogeneous bool

	total int // all build rows, including NULL-key ones
}

// probeScratch is the probe-side scratch state of one hash join's run:
// evaluation environments, decoded key values and the key encoding buffer.
type probeScratch struct {
	pev, rev  execEnv
	probeVals []Value
	keyBuf    []byte
}

func (h *hashJoinSource) newProbeScratch() *probeScratch {
	return &probeScratch{
		pev:       execEnv{params: h.params},
		rev:       execEnv{params: h.params},
		probeVals: make([]Value, len(h.keys)),
	}
}

// prepare runs the build phase once and tallies the join in the planner
// counters (hashJoins for a trusted-key build, indexJoins too when that
// build is an existing index, nestedLoops for a heterogeneous one that
// degrades to per-pair comparison).
func (h *hashJoinSource) prepare() (*builtTable, error) {
	// When the key is one column, the build side is an unpruned full scan
	// and that column already has a hash index, the index *is* the build
	// table: probe it directly instead of rebuilding the same map per
	// statement. (A pruned access path can't use this: the index covers
	// rows the plan's sargs exclude; nor can a table the reading
	// transaction has written: the index covers committed rows only.)
	if len(h.keys) == 1 && h.acc.kind == accessScan && h.acc.ws == nil {
		if idx := h.t.indexByPos(h.keys[0].buildPos); idx != nil {
			kind, homog := idx.soleKind()
			if homog {
				h.db.hashJoins.Add(1)
				h.db.indexJoins.Add(1)
			} else {
				h.db.nestedLoops.Add(1)
			}
			return &builtTable{idx: idx, idxKind: kind, idxHomog: homog, total: h.t.RowCount()}, nil
		}
	}

	// Hash the build side's candidate rows on the equi key, in slot order.
	bt := &builtTable{m: make(map[string][][]Value)}
	kinds := make([][4]int, len(h.keys))
	vals := make([]Value, len(h.keys))
	var keyBuf []byte
	err := h.acc.iterate(h.t, func(_ int, row []Value) error {
		bt.total++
		for i, k := range h.keys {
			v := row[k.buildPos]
			if v.IsNull() {
				return nil // NULL joins nothing; keep the row out of the table
			}
			vals[i] = v
		}
		keyBuf = keyBuf[:0]
		for i, v := range vals {
			kinds[i][int(v.Kind)]++
			keyBuf = v.appendKey(keyBuf)
			keyBuf = append(keyBuf, 0)
		}
		bt.m[string(keyBuf)] = append(bt.m[string(keyBuf)], row)
		bt.rows = append(bt.rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The per-column build kinds decide the trusted-key vs per-pair probe
	// mode.
	bt.buildKinds = make([]Kind, len(h.keys))
	bt.homogeneous = true
	for i := range kinds {
		k, ok := soleKindOf(kinds[i])
		if !ok {
			bt.homogeneous = false
		}
		bt.buildKinds[i] = k
	}
	if bt.homogeneous {
		h.db.hashJoins.Add(1)
	} else {
		h.db.nestedLoops.Add(1)
	}
	return bt, nil
}

// probeTuple matches one probe tuple against the prepared build table and
// feeds each surviving pair to pair. Coercion semantics are preserved the
// same way the hash indexes do it (eqSlots): the key lookup is only
// trusted when each build column holds a single value kind and the probe
// value coerces into it; otherwise the probe row falls back to comparing
// against every build row, which reproduces a nested loop's per-pair `=`
// behavior — including NULL never matching and cross-kind comparison
// errors.
func (h *hashJoinSource) probeTuple(bt *builtTable, s *probeScratch, tup tuple, pair func(tuple, []Value) error) error {
	if bt.total == 0 {
		// No build rows: no pairs exist, so — as in a nested loop — the
		// probe-side key expressions are never evaluated.
		return nil
	}
	s.pev.tup = tup
	if bt.idx != nil {
		return h.probeIndex(bt, s, tup, pair)
	}
	isNull := false
	for i, k := range h.keys {
		v, err := k.probe(&s.pev)
		if err != nil {
			return err
		}
		if v.IsNull() {
			isNull = true
			break
		}
		s.probeVals[i] = v
	}
	if isNull {
		return nil // `=` with NULL matches nothing
	}
	if bt.homogeneous {
		s.keyBuf = s.keyBuf[:0]
		coerced := true
		for i, v := range s.probeVals {
			cv, ok := coerceOrdBound(v, bt.buildKinds[i])
			if !ok {
				coerced = false
				break
			}
			s.keyBuf = cv.appendKey(s.keyBuf)
			s.keyBuf = append(s.keyBuf, 0)
		}
		if coerced {
			for _, brow := range bt.m[string(s.keyBuf)] {
				if err := pair(tup, brow); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// Heterogeneous build kinds or an incoercible probe value: compare the
	// key per build row, preserving per-pair coercion (and its errors)
	// exactly as a nested loop would.
	for _, brow := range bt.rows {
		match, err := h.pairKeyEqual(s.probeVals, brow)
		if err != nil {
			return err
		}
		if !match {
			continue
		}
		if err := pair(tup, brow); err != nil {
			return err
		}
	}
	return nil
}

// probeIndex probes the build table's persistent hash index. Semantics
// match the build-and-probe path: the index maintains the same kind tally
// (soleKind) and the probe coerces via coerceOrdBound, falling back to
// per-row coercing comparison when the lookup cannot be trusted.
func (h *hashJoinSource) probeIndex(bt *builtTable, s *probeScratch, tup tuple, pair func(tuple, []Value) error) error {
	v, err := h.keys[0].probe(&s.pev)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // `=` with NULL matches nothing
	}
	if bt.idxHomog {
		if bt.idxKind == KindNull {
			return nil // all build keys NULL: nothing can match
		}
		if cv, ok := coerceOrdBound(v, bt.idxKind); ok {
			s.keyBuf = cv.appendKey(s.keyBuf[:0])
			for _, slot := range bt.idx.m[string(s.keyBuf)] {
				brow, err := h.t.rowAt(slot)
				if err != nil {
					return err
				}
				if err := pair(tup, brow); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// Mixed build kinds or an incoercible probe value: per-row coercing
	// comparison, as a nested loop over a scan does.
	s.probeVals[0] = v
	return h.t.scan(func(_ int, brow []Value) error {
		match, err := h.pairKeyEqual(s.probeVals[:1], brow)
		if err != nil || !match {
			return err
		}
		return pair(tup, brow)
	})
}

func (h *hashJoinSource) run(emit func([]tuple) error) error {
	bt, err := h.prepare()
	if err != nil {
		return err
	}
	out := newBatcher(h.ntabs, emit)
	s := h.newProbeScratch()
	pair := h.pairFunc(out, &s.rev)
	err = h.inner.run(func(batch []tuple) error {
		for _, tup := range batch {
			if err := h.probeTuple(bt, s, tup, pair); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return out.flush()
}

// pairKeyEqual evaluates the multi-column key equality for one (probe,
// build) pair in conjunct order with AND short-circuit: what the compiled
// `=` closures of the original conjuncts, chained by AND, would return.
func (h *hashJoinSource) pairKeyEqual(probeVals []Value, brow []Value) (bool, error) {
	for i, k := range h.keys {
		bv := brow[k.buildPos]
		if bv.IsNull() || probeVals[i].IsNull() {
			return false, nil
		}
		c, err := probeVals[i].Compare(bv)
		if err != nil {
			return false, err
		}
		if c != 0 {
			return false, nil
		}
	}
	return true, nil
}

// loopJoinSource is the compiled nested-loop join for steps with no equi
// key: each probe tuple iterates the table's access path under the ON
// filter.
type loopJoinSource struct {
	db     *DB
	inner  rowSource
	t      *Table
	ti     int
	ntabs  int
	acc    access
	on     compiledExpr // nil for a plain cross step (comma join)
	params []Value
}

func (l *loopJoinSource) run(emit func([]tuple) error) error {
	l.db.nestedLoops.Add(1)
	out := newBatcher(l.ntabs, emit)
	ev := &execEnv{params: l.params}
	err := l.inner.run(func(batch []tuple) error {
		for _, tup := range batch {
			err := l.acc.iterate(l.t, func(_ int, row []Value) error {
				nt := out.newTuple()
				copy(nt, tup)
				nt[l.ti] = row
				if l.on != nil {
					ev.tup = nt
					v, err := l.on(ev)
					if err != nil || !v.Truthy() {
						return err
					}
				}
				return out.add(nt)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return out.flush()
}

//
// Pipeline consumer: filter -> [group] -> sort -> project.
//

// run executes the lowered plan and materializes the result.
func (p *compiledSelect) run() (*Result, error) {
	if p.hasSeed {
		p.db.countAccess(p.seedAcc)
	}
	if p.grouped {
		return p.runGrouped()
	}
	return p.runPlain()
}

// sortItem is one sortable output row: a tuple (a group's first tuple for
// grouped queries) plus finalized aggregates, with ORDER BY keys memoized
// lazily so each key expression is evaluated at most once per row — and
// not at all for keys no comparison reaches, so a key expression's error
// surfaces exactly when per-comparison evaluation would raise it.
type sortItem struct {
	tup  tuple
	aggs []Value
	keys []Value
	have []bool
}

func (p *compiledSelect) sortItems(items []sortItem) error {
	n := len(p.orderBy)
	keyMem := make([]Value, n*len(items))
	haveMem := make([]bool, n*len(items))
	for i := range items {
		items[i].keys = keyMem[i*n : (i+1)*n]
		items[i].have = haveMem[i*n : (i+1)*n]
	}
	ev := &execEnv{params: p.params}
	var sortErr error
	key := func(it *sortItem, k int) (Value, bool) {
		if !it.have[k] {
			ev.tup, ev.aggs = it.tup, it.aggs
			v, err := p.orderBy[k].key(ev)
			if err != nil {
				sortErr = err
				return Value{}, false
			}
			it.keys[k] = v
			it.have[k] = true
		}
		return it.keys[k], true
	}
	sort.SliceStable(items, func(i, j int) bool {
		if sortErr != nil {
			return false
		}
		for k := 0; k < n; k++ {
			vi, ok := key(&items[i], k)
			if !ok {
				return false
			}
			vj, ok := key(&items[j], k)
			if !ok {
				return false
			}
			c := compareForSort(vi, vj)
			if c == 0 {
				continue
			}
			if p.orderBy[k].desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

func (p *compiledSelect) projectInto(ev *execEnv, tup tuple, aggs []Value) ([]Value, error) {
	ev.tup, ev.aggs = tup, aggs
	// Result rows are carved from chunks sized by nextChunk: a point read
	// allocates one row, and the unused tail of the last chunk is always
	// smaller than the rows projected. Each row is capped at its length, so
	// appending to one cannot reach the next.
	n := len(p.proj)
	if len(p.projMem) < n {
		p.projRows = nextChunk(p.projRows)
		p.projMem = make([]Value, n*p.projRows)
	}
	row := p.projMem[:n:n]
	p.projMem = p.projMem[n:]
	for i, pe := range p.proj {
		v, err := pe(ev)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// errStopWalk is the one early-stop value of a row or index walk: a visitor
// returns it to end the walk, and the code that started the walk does not
// report it.
var errStopWalk = errors.New("sqldb: walk stopped")

// eachTuple feeds fn every tuple of the source until fn fails. A
// single-table source is fused: the access path's rows pass through one
// reused tuple (volatile: fn copies what it keeps), skipping the batcher,
// so the walk reads no row past the one fn stops at.
func (p *compiledSelect) eachTuple(fn func(tup tuple, volatile bool) error) error {
	var err error
	if ss, ok := p.src.(*scanSource); ok {
		scratch := make(tuple, ss.ntabs)
		err = ss.acc.iterate(ss.t, func(_ int, row []Value) error {
			scratch[ss.ti] = row
			return fn(scratch, true)
		})
	} else {
		err = p.src.run(func(batch []tuple) error {
			for _, tup := range batch {
				if err := fn(tup, false); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if errors.Is(err, errStopWalk) {
		return nil
	}
	return err
}

// keep points ev at tup and applies the WHERE filter to it.
func (p *compiledSelect) keep(ev *execEnv, tup tuple) (bool, error) {
	ev.tup, ev.aggs = tup, nil
	if p.where == nil {
		return true, nil
	}
	v, err := p.where(ev)
	return err == nil && v.Truthy(), err
}

func (p *compiledSelect) runPlain() (*Result, error) {
	res := &Result{Columns: p.cols}
	ev := &execEnv{params: p.params}
	ordered := p.seedAcc.kind == accessOrdered
	if !ordered && len(p.orderBy) > 0 {
		var items []sortItem
		err := p.src.run(func(batch []tuple) error {
			for _, tup := range batch {
				ok, err := p.keep(ev, tup)
				if err != nil {
					return err
				}
				if ok {
					items = append(items, sortItem{tup: tup})
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return p.output(ev, res, items)
	}

	// Rows arrive in result order: project each as it passes. An
	// index-ordered walk with a LIMIT (and no DISTINCT collapsing rows
	// afterwards) stops as soon as offset+limit rows matched; the sum
	// saturates.
	want := int64(-1)
	if ordered && p.s.Limit != nil && !p.s.Distinct {
		want = *p.s.Limit
		if off := p.s.Offset; off != nil {
			want = min(want, math.MaxInt64-*off) + *off
		}
	}
	err := p.eachTuple(func(tup tuple, _ bool) error {
		if ok, err := p.keep(ev, tup); !ok {
			return err
		}
		row, err := p.projectInto(ev, tup, nil)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, row)
		if want >= 0 && int64(len(res.Rows)) >= want {
			return errStopWalk
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.output(ev, res, nil)
}

// output sorts items by the ORDER BY, projects them onto res and applies
// DISTINCT and LIMIT to all of res. A plan whose rows arrived in result
// order passes them already projected in res, and no items.
func (p *compiledSelect) output(ev *execEnv, res *Result, items []sortItem) (*Result, error) {
	if len(items) > 0 && len(p.orderBy) > 0 {
		if err := p.sortItems(items); err != nil {
			return nil, err
		}
	}
	for i := range items {
		row, err := p.projectInto(ev, items[i].tup, items[i].aggs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if p.s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, p.s.Limit, p.s.Offset)
	return res, nil
}

// cgroup is one hash-aggregation group: the first tuple seen (projection of
// non-aggregate expressions uses it) plus one accumulator per deduplicated
// aggregate call.
type cgroup struct {
	first tuple
	accs  []vAgg
}

func (p *compiledSelect) newGroup(first tuple) *cgroup {
	gr := &cgroup{first: first, accs: make([]vAgg, len(p.aggs))}
	for i, spec := range p.aggs {
		gr.accs[i] = spec.newAcc()
	}
	return gr
}

func (p *compiledSelect) runGrouped() (*Result, error) {
	groups := make(map[string]*cgroup)
	var order []*cgroup
	ev := &execEnv{params: p.params}
	var keyBuf []byte
	// step folds one tuple into its group. volatile marks a tuple whose
	// backing slice is reused by the caller; the group's retained first
	// tuple is copied then.
	step := func(tup tuple, volatile bool) error {
		if ok, err := p.keep(ev, tup); !ok {
			return err
		}
		keyBuf = keyBuf[:0]
		for gi, gk := range p.groupKeys {
			var v Value
			if s := p.groupKeySlots[gi]; s.ok {
				v = tup[s.ti][s.ci]
			} else {
				var err error
				v, err = gk(ev)
				if err != nil {
					return err
				}
			}
			keyBuf = v.appendKey(keyBuf)
			keyBuf = append(keyBuf, 0x1f)
		}
		gr := groups[string(keyBuf)]
		if gr == nil {
			first := tup
			if volatile {
				first = append(tuple(nil), tup...)
			}
			gr = p.newGroup(first)
			groups[string(keyBuf)] = gr
			order = append(order, gr)
		}
		for _, acc := range gr.accs {
			if err := acc.step(ev); err != nil {
				return err
			}
		}
		return nil
	}

	if err := p.eachTuple(step); err != nil {
		return nil, err
	}

	// Aggregates over zero rows with no GROUP BY yield one group.
	if len(order) == 0 && len(p.s.GroupBy) == 0 {
		order = append(order, p.newGroup(nil))
	}

	var items []sortItem
	for _, gr := range order {
		aggs := make([]Value, len(gr.accs))
		for i, acc := range gr.accs {
			v, err := acc.final()
			if err != nil {
				return nil, err
			}
			aggs[i] = v
		}
		if p.having != nil {
			ev.tup, ev.aggs = gr.first, aggs
			hv, err := p.having(ev)
			if err != nil {
				return nil, err
			}
			if !hv.Truthy() {
				continue
			}
		}
		items = append(items, sortItem{tup: gr.first, aggs: aggs})
	}

	return p.output(ev, &Result{Columns: p.cols}, items)
}

//
// Aggregate accumulators over compiled argument closures.
//

type vAgg interface {
	step(ev *execEnv) error
	final() (Value, error)
}

// readArg fetches a one-argument aggregate's input: a direct column read
// when the argument compiled to a bare column slot, the closure otherwise.
func readArg(ev *execEnv, slot colSlot, arg compiledExpr) (Value, error) {
	if slot.ok {
		return ev.tup[slot.ti][slot.ci], nil
	}
	return arg(ev)
}

type cCountStarAcc struct{ n int64 }

func (a *cCountStarAcc) step(*execEnv) error   { a.n++; return nil }
func (a *cCountStarAcc) final() (Value, error) { return Int(a.n), nil }

type cCountAcc struct {
	arg  compiledExpr
	slot colSlot
	n    int64
}

func (a *cCountAcc) step(ev *execEnv) error {
	v, err := readArg(ev, a.slot, a.arg)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.n++
	}
	return nil
}
func (a *cCountAcc) final() (Value, error) { return Int(a.n), nil }

type cCountDistinctAcc struct {
	arg  compiledExpr
	slot colSlot
	seen map[string]bool
}

func (a *cCountDistinctAcc) step(ev *execEnv) error {
	v, err := readArg(ev, a.slot, a.arg)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.seen[v.Key()] = true
	}
	return nil
}
func (a *cCountDistinctAcc) final() (Value, error) { return Int(int64(len(a.seen))), nil }

type cSumAcc struct {
	arg  compiledExpr
	slot colSlot
	sum  int64
	any  bool
}

func (a *cSumAcc) step(ev *execEnv) error {
	v, err := readArg(ev, a.slot, a.arg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	n, err := v.AsInt()
	if err != nil {
		return err
	}
	a.sum += n
	a.any = true
	return nil
}
func (a *cSumAcc) final() (Value, error) {
	if !a.any {
		return Null(), nil
	}
	return Int(a.sum), nil
}

type cAvgAcc struct {
	arg  compiledExpr
	slot colSlot
	sum  int64
	n    int64
}

func (a *cAvgAcc) step(ev *execEnv) error {
	v, err := readArg(ev, a.slot, a.arg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	x, err := v.AsInt()
	if err != nil {
		return err
	}
	a.sum += x
	a.n++
	return nil
}
func (a *cAvgAcc) final() (Value, error) {
	if a.n == 0 {
		return Null(), nil
	}
	return Int(a.sum / a.n), nil
}

type cMinMaxAcc struct {
	arg  compiledExpr
	slot colSlot
	min  bool
	best Value
	any  bool
}

func (a *cMinMaxAcc) step(ev *execEnv) error {
	v, err := readArg(ev, a.slot, a.arg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if !a.any {
		a.best = v
		a.any = true
		return nil
	}
	c, err := v.Compare(a.best)
	if err != nil {
		return err
	}
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}
func (a *cMinMaxAcc) final() (Value, error) {
	if !a.any {
		return Null(), nil
	}
	return a.best, nil
}

type cUDFAcc struct {
	args  []compiledExpr
	vals  []Value // the row's arguments, refilled by every step
	state AggState
}

func (a *cUDFAcc) step(ev *execEnv) error {
	for i, arg := range a.args {
		v, err := arg(ev)
		if err != nil {
			return err
		}
		a.vals[i] = v
	}
	return a.state.Step(a.vals)
}
func (a *cUDFAcc) final() (Value, error) { return a.state.Final() }
