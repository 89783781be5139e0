package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"repro/internal/sqldb"
)

// TestReadMsgClaimedLength: a header claiming the largest allowed payload,
// followed by nothing, must fail without allocating what it claims.
func TestReadMsgClaimedLength(t *testing.T) {
	hdr := []byte{msgFrames, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], maxMsgLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readMsg(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 1 GiB header with no payload read as a message")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("reading a 1 GiB header with no payload allocated %d bytes", d)
	}
}

// replayStream is the follower's side of a stream after its handshake,
// without the acks: the reply, then every message through apply until one
// fails or the input ends.
func replayStream(f *Follower, r io.Reader) error {
	if _, _, err := readReply(r); err != nil {
		return err
	}
	for {
		typ, payload, err := readMsg(r)
		if err != nil {
			return err
		}
		if err := f.apply(typ, payload); err != nil {
			return err
		}
	}
}

// maxFuzzSlot caps the slots a fuzzed stream may write, as sqldb's
// FuzzReplicatedFrame does: a replayed insert records every gap slot below
// it in the free list and materializes its pages, so its memory is
// proportional to the slot.
const maxFuzzSlot = 1 << 12

// slotBeyondCap reports whether any offset of data reads as the start of a
// row op — an insert, delete or update kind byte, a table name, a slot —
// whose slot exceeds maxFuzzSlot. Trying every offset over-approximates
// where the decoder finds ops, so no replayed slot escapes the cap.
func slotBeyondCap(data []byte) bool {
	for i, kind := range data {
		if kind < 1 || kind > 3 { // the insert, delete and update op kinds
			continue
		}
		rest := data[i+1:]
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > uint64(len(rest)-k) {
			continue
		}
		if slot, k := binary.Uvarint(rest[k+int(n):]); k > 0 && slot > maxFuzzSlot {
			return true
		}
	}
	return false
}

// FuzzReplStream feeds arbitrary bytes to a fresh in-memory follower as the
// primary's side of a stream: reply, snapshot, frame and error messages.
// The replay must end in an error, never a panic.
func FuzzReplStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if slotBeyondCap(data) {
			return
		}
		if err := replayStream(&Follower{db: sqldb.New()}, bytes.NewReader(data)); err == nil {
			t.Fatal("a stream that ended replayed without an error")
		}
	})
}
