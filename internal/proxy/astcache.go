package proxy

import (
	"container/list"
	"sync"

	"repro/internal/sqlparser"
)

// astCache is a bounded LRU of parsed statements keyed by raw SQL text.
// Applications issue the same statement shapes over and over (TPC-C's five
// classes, a forum's page queries), so Execute would otherwise re-lex and
// re-parse identical text on every call. Cached ASTs are shared across
// goroutines; the statement build never mutates a parsed statement (it
// builds fresh server-side trees), so sharing is safe.
type astCache struct {
	mu           sync.Mutex
	max          int
	ll           *list.List               // front = most recently used
	m            map[string]*list.Element // sql -> element holding *astEntry
	hits, misses int64
}

type astEntry struct {
	sql string
	st  sqlparser.Statement
}

// astCacheSize is how many parsed statements a proxy keeps.
const astCacheSize = 1024

// astCacheMaxSQL bounds the text length of cacheable statements. The hot,
// repeated shapes are short parameterized statements; one-shot multi-row
// INSERT texts can run to megabytes and would pin memory for zero hits.
const astCacheMaxSQL = 4096

func newASTCache(max int) *astCache {
	return &astCache{max: max, ll: list.New(), m: make(map[string]*list.Element, max)}
}

func (c *astCache) get(sql string) (sqlparser.Statement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[sql]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*astEntry).st, true
}

func (c *astCache) put(sql string, st sqlparser.Statement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[sql]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*astEntry).st = st
		return
	}
	c.m[sql] = c.ll.PushFront(&astEntry{sql: sql, st: st})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*astEntry).sql)
	}
}

func (c *astCache) counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
