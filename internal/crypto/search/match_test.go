package search

import (
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/crypto/prf"
)

// referenceMatch is Match as it was before Matcher (commit 581f1a3),
// verbatim: one prf.Sum — a fresh HMAC and its key schedule — per stored
// word. It is the oracle Matcher is held to.
func referenceMatch(blob []byte, token Token) bool {
	if len(blob)%EntrySize != 0 {
		return false
	}
	found := 0
	for off := 0; off+EntrySize <= len(blob); off += EntrySize {
		salt := blob[off : off+saltSize]
		mac := blob[off+saltSize : off+EntrySize]
		want := prf.Sum(token, salt)[:WordSize]
		// Constant-time per entry; scan all entries regardless.
		found |= subtle.ConstantTimeCompare(mac, want)
	}
	return found == 1
}

// TestSearchKnownAnswer pins SEARCH blobs stored in the DBMS: every blob in
// testdata/known_answer.json was written by EncryptWords at commit 581f1a3
// under the file's key, and each probe word must match it exactly as the
// Match of that commit did. The vectors include 12-word blobs (the
// analytic workload's shape), an empty blob, blobs of malformed length,
// and a 15-byte word, which collides with its 14-byte prefix because
// words are truncated to WordSize-2 bytes.
func TestSearchKnownAnswer(t *testing.T) {
	raw, err := os.ReadFile("testdata/known_answer.json")
	if err != nil {
		t.Fatal(err)
	}
	var kat struct {
		Key   string
		Blobs []struct {
			Name, Hex string
			Probes    []struct {
				Word  string
				Match bool
			}
		}
	}
	if err := json.Unmarshal(raw, &kat); err != nil {
		t.Fatal(err)
	}
	c := New([]byte(kat.Key))
	probes := 0
	for _, b := range kat.Blobs {
		blob, err := hex.DecodeString(b.Hex)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, p := range b.Probes {
			tok := c.TokenFor(p.Word)
			if got := NewMatcher(tok).Match(blob); got != p.Match {
				t.Errorf("%s: word %q matched %v, recorded %v", b.Name, p.Word, got, p.Match)
			}
			if got := Match(blob, tok); got != p.Match {
				t.Errorf("%s: Match(word %q) = %v, recorded %v", b.Name, p.Word, got, p.Match)
			}
			probes++
		}
	}
	if len(kat.Blobs) < 10 || probes < 100 {
		t.Fatalf("%d blobs, %d probes: the vector file is truncated", len(kat.Blobs), probes)
	}
}

// randomBlob returns a blob to match tok against: entries made under tok
// (so some blobs match), entries under other tokens, random bytes, and
// lengths that are not a multiple of EntrySize.
func randomBlob(rng *rand.Rand, tok Token) []byte {
	n := rng.Intn(20)
	blob := make([]byte, 0, n*EntrySize+EntrySize)
	for i := 0; i < n; i++ {
		salt := make([]byte, saltSize)
		rng.Read(salt)
		blob = append(blob, salt...)
		switch rng.Intn(4) {
		case 0:
			blob = append(blob, prf.Sum(tok, salt)[:WordSize]...)
		case 1:
			other := make([]byte, rng.Intn(3)*32)
			rng.Read(other)
			blob = append(blob, prf.Sum(other, salt)[:WordSize]...)
		default:
			mac := make([]byte, WordSize)
			rng.Read(mac)
			blob = append(blob, mac...)
		}
	}
	if rng.Intn(8) == 0 {
		extra := make([]byte, 1+rng.Intn(EntrySize-1))
		rng.Read(extra)
		blob = append(blob, extra...)
	}
	return blob
}

// TestMatcherDifferential holds Matcher to referenceMatch on random tokens
// — empty, 32 bytes like TokenFor's, and longer than a SHA-256 block, which
// HMAC hashes first — and random blobs, including malformed lengths.
func TestMatcherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New([]byte("differential"))
	matches := 0
	for i := 0; i < 400; i++ {
		var tok Token
		switch i % 4 {
		case 0:
			tok = c.TokenFor(fmt.Sprintf("w%d", rng.Intn(50)))
		case 1:
			tok = make(Token, rng.Intn(64))
		case 2:
			tok = make(Token, 65+rng.Intn(100))
		default:
			tok = make(Token, 64)
		}
		if i%4 != 0 {
			rng.Read(tok)
		}
		m := NewMatcher(tok)
		for j := 0; j < 50; j++ {
			blob := randomBlob(rng, tok)
			want := referenceMatch(blob, tok)
			if got := m.Match(blob); got != want {
				t.Fatalf("token %x blob %x: Matcher.Match = %v, reference %v", tok, blob, got, want)
			}
			if want {
				matches++
			}
		}
	}
	if matches < 1000 {
		t.Fatalf("only %d of 20000 blobs matched: the test no longer exercises matches", matches)
	}
}

// TestMatcherConcurrent shares one Matcher across goroutines; run with
// -race.
func TestMatcherConcurrent(t *testing.T) {
	c := New([]byte("key"))
	blob, err := c.EncryptText("alpha beta gamma")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(c.TokenFor("beta"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if !m.Match(blob) {
					t.Error("shared Matcher missed a present word")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSearchMatch requires Matcher.Match to agree with referenceMatch on
// arbitrary blob and token bytes, and never to panic.
func FuzzSearchMatch(f *testing.F) {
	c := New([]byte("fuzz"))
	blob, err := c.EncryptText("the quick brown fox")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, []byte(c.TokenFor("fox")))
	f.Add(blob[:EntrySize+3], []byte(c.TokenFor("fox")))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, blob, token []byte) {
		want := referenceMatch(blob, token)
		if got := NewMatcher(token).Match(blob); got != want {
			t.Fatalf("Matcher.Match = %v, reference %v", got, want)
		}
	})
}

// BenchmarkMatch matches one token against the analytic workload's users
// table: 2200 rows of 12 keywords. ns/word and allocs/word are per stored
// word; "reference" is the per-word HMAC Match had before Matcher.
func BenchmarkMatch(b *testing.B) {
	const rows, words = 2200, 12
	c := New([]byte("bench"))
	rng := rand.New(rand.NewSource(1))
	blobs := make([][]byte, rows)
	for i := range blobs {
		ws := make([]string, words)
		for j := range ws {
			ws[j] = fmt.Sprintf("kw%04d", rng.Intn(400))
		}
		blob, err := c.EncryptWords(ws)
		if err != nil {
			b.Fatal(err)
		}
		blobs[i] = blob
	}
	tok := c.TokenFor("kw0042")
	// run times one statement's scan per iteration.
	run := func(b *testing.B, statement func()) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			statement()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		perWord := float64(b.N) * rows * words
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perWord, "ns/word")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perWord, "allocs/word")
	}
	b.Run("matcher", func(b *testing.B) {
		run(b, func() {
			m := NewMatcher(tok)
			for _, blob := range blobs {
				m.Match(blob)
			}
		})
	})
	b.Run("reference", func(b *testing.B) {
		run(b, func() {
			for _, blob := range blobs {
				referenceMatch(blob, tok)
			}
		})
	})
}
