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

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
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
	// Random permutation of positions: sort by a keyed hash of the word
	// plus fresh randomness so the stored order reveals nothing.
	perm := make([]string, len(words))
	copy(perm, words)
	var shuffleSeed [8]byte
	if _, err := rand.Read(shuffleSeed[:]); err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	sort.Slice(perm, func(i, j int) bool {
		hi := prf.SumUint64(c.key, []byte("perm"), shuffleSeed[:], []byte(perm[i]))
		hj := prf.SumUint64(c.key, []byte("perm"), shuffleSeed[:], []byte(perm[j]))
		return hi < hj
	})

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
// prf.Sum(token, salt), an HMAC-SHA256 keyed by the token, so the
// token's HMAC key schedule — the SHA-256 states after the ipad and opad
// key blocks — is derived once here, and each entry then costs two
// compressions: the inner hash's one message block and the outer hash's.
// A Matcher is immutable and safe for concurrent use.
type Matcher struct {
	inner, outer []byte // marshaled SHA-256 midstates
}

// NewMatcher derives the HMAC midstates of token.
func NewMatcher(token Token) *Matcher {
	var k [sha256.BlockSize]byte
	if len(token) > sha256.BlockSize {
		sum := sha256.Sum256(token)
		copy(k[:], sum[:])
	} else {
		copy(k[:], token)
	}
	midstate := func(pad byte) []byte {
		var block [sha256.BlockSize]byte
		for i := range block {
			block[i] = k[i] ^ pad
		}
		h := sha256.New()
		h.Write(block[:])
		st, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic("search: sha256 state: " + err.Error()) // impossible: sha256 digests marshal
		}
		return st
	}
	return &Matcher{inner: midstate(0x36), outer: midstate(0x5c)}
}

// Match reports whether blob contains the word behind the Matcher's token.
// It scans every entry; the allocations are per call, not per entry.
func (m *Matcher) Match(blob []byte) bool {
	if len(blob)%EntrySize != 0 || len(blob) == 0 {
		return false
	}
	h := sha256.New()
	st := h.(encoding.BinaryUnmarshaler)
	// buf holds the inner message — prf.Sum's 8-byte length prefix and the
	// salt — then the inner digest, then the outer one.
	const msgLen = 8 + saltSize
	buf := make([]byte, msgLen+2*sha256.Size)
	binary.BigEndian.PutUint64(buf, saltSize)
	found := 0
	for off := 0; off < len(blob); off += EntrySize {
		copy(buf[8:msgLen], blob[off:off+saltSize])
		restore(st, m.inner)
		h.Write(buf[:msgLen])
		in := h.Sum(buf[msgLen:msgLen])
		restore(st, m.outer)
		h.Write(in)
		want := h.Sum(buf[msgLen+sha256.Size : msgLen+sha256.Size])[:WordSize]
		// The server holds both token and blob, so a constant-time
		// comparison hides nothing from it; it costs the same as
		// bytes.Equal and keeps the scan's timing data-independent.
		found |= subtle.ConstantTimeCompare(blob[off+saltSize:off+EntrySize], want)
	}
	return found == 1
}

func restore(st encoding.BinaryUnmarshaler, state []byte) {
	if err := st.UnmarshalBinary(state); err != nil {
		panic("search: sha256 state: " + err.Error()) // impossible: the state came from MarshalBinary
	}
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

// Probe is a helper for tests: true if two blobs are byte-identical (they
// should never be, for probabilistic SEARCH).
func Probe(a, b []byte) bool { return bytes.Equal(a, b) }
