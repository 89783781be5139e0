// Package repl implements asynchronous primary → follower replication by
// shipping the embedded database's WAL frames over TCP.
//
// The design leans entirely on what the durability layer already
// guarantees: frames are CRC-protected, sequence-numbered, and are the
// unit of commit atomicity, so the replication protocol never invents its
// own transaction framing — it moves the primary's frames verbatim and the
// follower replays them through the same code path crash recovery uses.
// The proxy's sealed onion metadata rides those frames too (walOpMeta), so
// a follower's metadata can never diverge from the ciphertexts it
// describes.
//
// Wire protocol (all integers big-endian):
//
//	handshake (follower → primary):
//	    magic[8] shard[4] fromSeq[8]
//	reply (primary → follower):
//	    magic[8] shardCount[4] flags[4]
//	stream (primary → follower): messages
//	    type[1] len[4] payload
//	      msgSnap   payload := seq[8] snapshotOps   (full-state resync)
//	      msgFrames payload := frame+               (raw WAL frames)
//	      msgErr    payload := error string         (terminal; conn closes)
//	acks (follower → primary): seq[8]+  — the follower's replay position,
//	    written after each applied message; the primary exposes it as lag.
//
// A shard field of probeShard turns the handshake into a topology probe:
// the primary answers with its shard count and closes. Catch-up is decided
// by the primary: if fromSeq is still covered by its log the stream starts
// with msgFrames, otherwise with one msgSnap followed by the tail.
//
// Delivery is at-least-once across reconnects (the follower redials with
// its current sequence); replay is idempotent because the follower skips
// frames at or below its own sequence. A partially received message is
// discarded on disconnect — nothing is applied until a message has arrived
// whole and each contained frame passes its CRC check again on the
// follower.
package repl

import (
	"encoding/binary"
	"fmt"
	"io"
)

const (
	replMagic  = "CDBREPL\x01"
	probeShard = 0xFFFFFFFF

	msgSnap   = 1
	msgFrames = 2
	msgErr    = 3

	// maxMsgLen bounds allocation when reading a (possibly hostile or
	// corrupt) stream.
	maxMsgLen = 1 << 30

	handshakeLen = 8 + 4 + 8
	replyLen     = 8 + 4 + 4
)

// FlagSharded in the handshake reply marks the primary's engine as
// sharded. A follower mirrors the topology exactly — a sharded primary
// with one shard still wraps its metadata blobs in the sharded engine's
// sequence envelope, so the count alone is not enough.
const FlagSharded = uint32(1)

func writeHandshake(w io.Writer, shard uint32, fromSeq uint64) error {
	buf := make([]byte, handshakeLen)
	copy(buf, replMagic)
	binary.BigEndian.PutUint32(buf[8:], shard)
	binary.BigEndian.PutUint64(buf[12:], fromSeq)
	_, err := w.Write(buf)
	return err
}

func readHandshake(r io.Reader) (shard uint32, fromSeq uint64, err error) {
	buf := make([]byte, handshakeLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, err
	}
	if string(buf[:8]) != replMagic {
		return 0, 0, fmt.Errorf("repl: bad handshake magic")
	}
	return binary.BigEndian.Uint32(buf[8:]), binary.BigEndian.Uint64(buf[12:]), nil
}

func writeReply(w io.Writer, shards int, flags uint32) error {
	buf := make([]byte, replyLen)
	copy(buf, replMagic)
	binary.BigEndian.PutUint32(buf[8:], uint32(shards))
	binary.BigEndian.PutUint32(buf[12:], flags)
	_, err := w.Write(buf)
	return err
}

func readReply(r io.Reader) (shards int, flags uint32, err error) {
	buf := make([]byte, replyLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, err
	}
	if string(buf[:8]) != replMagic {
		return 0, 0, fmt.Errorf("repl: bad reply magic")
	}
	return int(binary.BigEndian.Uint32(buf[8:])), binary.BigEndian.Uint32(buf[12:]), nil
}

// encodeMsg frames one stream message. Returned as a single buffer so the
// fault injector can truncate it at any byte boundary.
func encodeMsg(typ byte, payload []byte) []byte {
	buf := make([]byte, 5+len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:], uint32(len(payload)))
	copy(buf[5:], payload)
	return buf
}

// readMsg reads one stream message. The payload buffer grows with the
// bytes that arrive, not with the length the header claims, so a header
// without its payload costs nothing.
func readMsg(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxMsgLen {
		return 0, nil, fmt.Errorf("repl: message length %d exceeds limit", n)
	}
	if payload, err = io.ReadAll(io.LimitReader(r, int64(n))); err != nil {
		return 0, nil, err
	}
	if len(payload) < int(n) {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return hdr[0], payload, nil
}

func writeAck(w io.Writer, seq uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seq)
	_, err := w.Write(buf[:])
	return err
}

func readAck(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}
