package search

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/crypto/prf"
)

func TestMatchPresentWord(t *testing.T) {
	c := New([]byte("key"))
	blob, err := c.EncryptText("the quick brown fox")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"the", "quick", "brown", "fox"} {
		if !Match(blob, c.TokenFor(w)) {
			t.Errorf("token for present word %q did not match", w)
		}
	}
}

func TestNoMatchAbsentWord(t *testing.T) {
	c := New([]byte("key"))
	blob, err := c.EncryptText("the quick brown fox")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"dog", "quic", "foxx", ""} {
		if Match(blob, c.TokenFor(w)) {
			t.Errorf("token for absent word %q matched", w)
		}
	}
}

func TestCaseInsensitive(t *testing.T) {
	c := New([]byte("key"))
	blob, err := c.EncryptText("Alice sent a Message")
	if err != nil {
		t.Fatal(err)
	}
	if !Match(blob, c.TokenFor("ALICE")) {
		t.Error("search should be case-insensitive")
	}
	if !Match(blob, c.TokenFor("message")) {
		t.Error("search should be case-insensitive")
	}
}

func TestDuplicateRemoval(t *testing.T) {
	c := New([]byte("key"))
	blob, err := c.EncryptText("spam spam spam eggs")
	if err != nil {
		t.Fatal(err)
	}
	if got := WordCount(blob); got != 2 {
		t.Fatalf("WordCount = %d, want 2 (duplicates removed)", got)
	}
}

func TestProbabilisticBlob(t *testing.T) {
	// Two encryptions of the same text must differ (fresh salts and a
	// fresh permutation), so the server cannot tell rows share words.
	c := New([]byte("key"))
	b1, err := c.EncryptText("hello world")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.EncryptText("hello world")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b2) {
		t.Fatal("identical blobs across encryptions")
	}
}

func TestKeySeparation(t *testing.T) {
	c1 := New([]byte("key1"))
	c2 := New([]byte("key2"))
	blob, err := c1.EncryptText("secret")
	if err != nil {
		t.Fatal(err)
	}
	if Match(blob, c2.TokenFor("secret")) {
		t.Fatal("token from a different key matched")
	}
}

func TestEmptyText(t *testing.T) {
	c := New([]byte("key"))
	blob, err := c.EncryptText("")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != 0 {
		t.Fatalf("blob for empty text = %d bytes, want 0", len(blob))
	}
	if Match(blob, c.TokenFor("anything")) {
		t.Fatal("match against empty blob")
	}
}

func TestKeywords(t *testing.T) {
	got := Keywords("Hello, WORLD! hello... 42 foo-bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if len(got) != len(want) {
		t.Fatalf("Keywords = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keywords = %v, want %v", got, want)
		}
	}
}

func TestLongWordsTruncated(t *testing.T) {
	c := New([]byte("key"))
	long := strings.Repeat("x", 100)
	blob, err := c.EncryptText(long)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(blob, c.TokenFor(long)) {
		t.Fatal("long word should match its own token")
	}
}

func TestEntrySizeUniform(t *testing.T) {
	// Every word, short or long, occupies EntrySize bytes — hiding
	// word lengths per §3.1.
	c := New([]byte("key"))
	blob, err := c.EncryptText("a extraordinarily")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != 2*EntrySize {
		t.Fatalf("blob = %d bytes, want %d", len(blob), 2*EntrySize)
	}
}

func TestMatchMalformedBlob(t *testing.T) {
	c := New([]byte("key"))
	if Match([]byte{1, 2, 3}, c.TokenFor("x")) {
		t.Fatal("malformed blob matched")
	}
}

func TestEncryptWordsExplicitOrderDisabled(t *testing.T) {
	// Schemas can disable dedup/permutation by passing explicit word
	// lists (§3.1); the blob then contains each occurrence.
	c := New([]byte("key"))
	blob, err := c.EncryptWords([]string{"a", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if WordCount(blob) != 3 {
		t.Fatalf("WordCount = %d, want 3", WordCount(blob))
	}
}

// referencePermute is EncryptWords' permutation as it was before permute,
// verbatim: two keyed hashes per comparison. It is the oracle permute is
// held to.
func referencePermute(c *Cipher, words []string, shuffleSeed [8]byte) []string {
	perm := make([]string, len(words))
	copy(perm, words)
	sort.Slice(perm, func(i, j int) bool {
		hi := prf.SumUint64(c.key, []byte("perm"), shuffleSeed[:], []byte(perm[i]))
		hj := prf.SumUint64(c.key, []byte("perm"), shuffleSeed[:], []byte(perm[j]))
		return hi < hj
	})
	return perm
}

// TestPermuteDifferential: for fixed seeds, permute orders every word list
// as the per-comparison comparator did, duplicates included (an explicit
// list may repeat a word), from empty lists to lists longer than the
// insertion-sort cutoff.
func TestPermuteDifferential(t *testing.T) {
	c := New([]byte("key"))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		words := make([]string, rng.Intn(40))
		for i := range words {
			words[i] = fmt.Sprintf("w%d", rng.Intn(30))
		}
		var seed [8]byte
		rng.Read(seed[:])
		want := referencePermute(c, words, seed)
		if got := c.permute(words, seed[:]); !slices.Equal(got, want) {
			t.Fatalf("seed %x, words %v:\n got %v\nwant %v", seed, words, got, want)
		}
	}
}

func BenchmarkEncryptWords(b *testing.B) {
	c := New([]byte("key"))
	words := make([]string, 20)
	for i := range words {
		words[i] = fmt.Sprintf("word%02d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncryptWords(words); err != nil {
			b.Fatal(err)
		}
	}
}
