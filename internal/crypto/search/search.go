// Package search implements CryptDB's SEARCH layer (§3.1), the encrypted
// keyword search protocol of Song, Wagner and Perrig applied the way the
// paper applies it: the proxy splits text into keywords, removes duplicates,
// randomly permutes the word positions, pads every word to a fixed size and
// encrypts each word; LIKE "%word%" becomes a server-side UDF that checks an
// encrypted token against each stored word without learning the word.
//
// Per the paper, the only information the server learns from a search is
// which rows matched the requested token, plus the number of keywords
// stored per row.
package search

//go:generate go run ./_gen

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/crypto/prf"
)

// WordSize is the padded size every keyword is encrypted to, hiding word
// lengths.
const WordSize = 16

// saltSize is the per-occurrence randomness prepended to each encrypted word.
const saltSize = 8

// EntrySize is the on-server size of one encrypted keyword.
const EntrySize = saltSize + WordSize

// Cipher encrypts keyword sets for one column. It is safe for concurrent use.
type Cipher struct {
	key []byte
}

// New derives a Cipher from arbitrary key material.
func New(key []byte) *Cipher {
	return &Cipher{key: prf.Sum(key, []byte("search"))}
}

// Token is the trapdoor the proxy hands the server for one search word. The
// server cannot invert it to the word.
type Token []byte

// Keywords splits text into search keywords using standard delimiters,
// lower-casing and deduplicating, mirroring the proxy's default keyword
// extraction. Applications may substitute their own extractor (§3.1).
func Keywords(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
	seen := make(map[string]bool, len(fields))
	var out []string
	for _, f := range fields {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// EncryptText splits text into unique keywords, pseudo-randomly permutes
// them and encrypts each, returning the blob stored in the Search onion.
func (c *Cipher) EncryptText(text string) ([]byte, error) {
	return c.EncryptWords(Keywords(text))
}

// EncryptWords encrypts an explicit keyword list (for schemas that disable
// duplicate removal / reordering, the caller controls the list).
func (c *Cipher) EncryptWords(words []string) ([]byte, error) {
	var shuffleSeed [8]byte
	if _, err := rand.Read(shuffleSeed[:]); err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	perm := c.permute(words, shuffleSeed[:])
	buf := make([]byte, 0, len(perm)*EntrySize)
	for _, w := range perm {
		entry, err := c.encryptWord(w)
		if err != nil {
			return nil, err
		}
		buf = append(buf, entry...)
	}
	return buf, nil
}

// permute is the random permutation of positions: words sorted by a keyed
// hash of the word plus fresh randomness (seed), so the stored order
// reveals nothing. Each word's hash is computed once, not once per
// comparison.
func (c *Cipher) permute(words []string, seed []byte) []string {
	type keyed struct {
		h uint64
		w string
	}
	ks := make([]keyed, len(words))
	for i, w := range words {
		ks[i] = keyed{prf.SumUint64(c.key, []byte("perm"), seed, []byte(w)), w}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].h < ks[j].h })
	perm := make([]string, len(ks))
	for i, k := range ks {
		perm[i] = k.w
	}
	return perm
}

// encryptWord produces salt || MAC(token(w), salt), padded-word-keyed. The
// construction follows the practical variant of Song et al.: the stored
// entry can be tested against a token but reveals neither the word nor
// whether two rows share words (fresh salt per occurrence).
func (c *Cipher) encryptWord(w string) ([]byte, error) {
	salt := make([]byte, saltSize)
	if _, err := rand.Read(salt); err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	tok := c.TokenFor(w)
	mac := prf.Sum(tok, salt)[:WordSize]
	return append(salt, mac...), nil
}

// TokenFor computes the search trapdoor for a word. Only the proxy (key
// holder) can produce tokens.
func (c *Cipher) TokenFor(word string) Token {
	padded := padWord(strings.ToLower(word))
	return prf.Sum(c.key, []byte("word"), padded)
}

// Match reports whether the encrypted blob contains the word behind token.
// This is the computation CryptDB's searchSWP UDF performs on the server;
// note it needs no key. A caller testing many blobs against one token
// builds the Matcher once instead.
func Match(blob []byte, token Token) bool {
	return NewMatcher(token).Match(blob)
}

// Matcher tests blobs against one token. A stored entry is salt ||
// prf.Sum(token, salt)[:WordSize]: HMAC-SHA256 keyed by the token over the
// 16-byte message be64(saltSize) || salt. The token's HMAC key schedule — the
// SHA-256 states after the ipad and opad key blocks — is derived once here,
// and each entry then costs two calls of the compression function on bare
// states: one for the inner hash's last block and one for the outer hash's.
// A Matcher is immutable and safe for concurrent use.
type Matcher struct {
	inner, outer [8]uint32 // SHA-256 states after the ipad and opad blocks
}

// The bytes each hash of an entry's HMAC covers, its key block included;
// each fits one block after the key block, padding included.
const (
	innerLen = sha256.BlockSize + 8 + saltSize // prf.Sum's length prefix, the salt
	outerLen = sha256.BlockSize + sha256.Size  // the inner digest
)

// NewMatcher derives the HMAC midstates of token.
func NewMatcher(token Token) *Matcher {
	var k [sha256.BlockSize]byte
	if len(token) > sha256.BlockSize {
		sum := sha256.Sum256(token)
		copy(k[:], sum[:])
	} else {
		copy(k[:], token)
	}
	m := &Matcher{inner: iv, outer: iv}
	var block [sha256.BlockSize]byte
	for i := range block {
		block[i] = k[i] ^ 0x36
	}
	compress(&m.inner, block[:])
	for i := range block {
		block[i] = k[i] ^ 0x5c
	}
	compress(&m.outer, block[:])
	return m
}

// Match reports whether blob contains the word behind the Matcher's token.
// It scans every entry and allocates nothing. On a CPU with AVX512F it
// tests 16 entries a call, one to each lane (matchAVX512), but for a group
// too short to pay for the call when SHA-NI compresses (laneMin);
// elsewhere it takes one entry at a time (matchEach).
func (m *Matcher) Match(blob []byte) bool {
	if len(blob)%EntrySize != 0 || len(blob) == 0 {
		return false
	}
	return m.match(blob)
}

// matchEach is Match's scan one entry at a time, two compress calls each.
func (m *Matcher) matchEach(blob []byte) bool {
	// The last block of each hash, padded as SHA-256 pads it: inner takes
	// each entry's salt at bytes 8–15, outer its inner digest at 0–31.
	var inner, outer [sha256.BlockSize]byte
	binary.BigEndian.PutUint64(inner[:], saltSize)
	inner[8+saltSize] = 0x80
	binary.BigEndian.PutUint64(inner[sha256.BlockSize-8:], innerLen*8)
	outer[sha256.Size] = 0x80
	binary.BigEndian.PutUint64(outer[sha256.BlockSize-8:], outerLen*8)
	found := 0
	for off := 0; off < len(blob); off += EntrySize {
		entry := blob[off : off+EntrySize]
		copy(inner[8:], entry[:saltSize])
		h := m.inner
		compress(&h, inner[:])
		for i, w := range h {
			binary.BigEndian.PutUint32(outer[4*i:], w)
		}
		h = m.outer
		compress(&h, outer[:])
		// The stored MAC is the outer digest's first WordSize bytes: its
		// first four words. The server holds both token and blob, so a
		// constant-time comparison hides nothing from it; it costs no more
		// than a branch and keeps the scan's timing data-independent.
		mac := entry[saltSize:]
		diff := (h[0] ^ binary.BigEndian.Uint32(mac[0:])) |
			(h[1] ^ binary.BigEndian.Uint32(mac[4:])) |
			(h[2] ^ binary.BigEndian.Uint32(mac[8:])) |
			(h[3] ^ binary.BigEndian.Uint32(mac[12:]))
		found |= subtle.ConstantTimeEq(int32(diff), 0)
	}
	return found == 1
}

// WordCount reports the number of keywords stored in a blob — exactly the
// leakage the paper acknowledges for SEARCH.
func WordCount(blob []byte) int { return len(blob) / EntrySize }

func padWord(w string) []byte {
	b := []byte(w)
	if len(b) > WordSize-2 {
		b = b[:WordSize-2]
	}
	padded := make([]byte, WordSize)
	binary.BigEndian.PutUint16(padded[:2], uint16(len(b)))
	copy(padded[2:], b)
	return padded
}
