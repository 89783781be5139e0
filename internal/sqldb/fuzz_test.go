package sqldb

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/fsutil"
)

// The decoders of bytes this package did not just write: replicated WAL
// frames (the network), the WAL, page segments and the manifest (the disk). A CRC
// proves only that bytes were not damaged in flight, not that their writer
// was sane, so each decoder must turn any input into an error, never a
// panic. Each target feeds the input twice: as is, and reframed with a
// valid CRC so the fuzzer reaches the decoding behind the checksum.
// Corpora live in testdata/fuzz/<target>/.

// frameSeg wraps payload as a segment file with a valid CRC.
func frameSeg(payload []byte) []byte {
	return appendFrame([]byte(segMagic), payload)
}

// frameManifest wraps payload as a manifest with a valid header and CRC.
func frameManifest(payload []byte) []byte {
	return appendFrame(buildManifest(1, 2, nil, nil)[:manHeaderLen], payload)
}

// hugeInsertFrame is a CRC-valid replicated frame whose one insert op
// claims 2^62 cells.
func hugeInsertFrame() []byte {
	ops := append([]byte{walOpInsert}, 0) // an empty table name
	ops = appendUvarint(ops, 0)           // slot 0
	ops = appendUvarint(ops, 1<<62)       // cells
	return buildFrame(1, ops)
}

// hugeManifest is a CRC-valid manifest whose page directory claims 2^62
// entries.
func hugeManifest() []byte {
	payload := appendUvarint(nil, 0) // no schema ops
	payload = appendUvarint(payload, 1<<62)
	return frameManifest(payload)
}

// TestDecodeHugeCounts holds the decoders to an error on a CRC-valid input
// whose element count the input could not hold: allocating it panicked with
// "makeslice: len out of range" (a replicated frame, before any lock) and
// "makeslice: cap out of range" (a manifest).
func TestDecodeHugeCounts(t *testing.T) {
	if err := New().ApplyReplicatedFrame(hugeInsertFrame()); err == nil {
		t.Fatal("a frame claiming 2^62 insert cells applied")
	}
	create := append([]byte{walOpCreateTable}, 1, 't')
	create = appendUvarint(create, 1<<62)
	if err := New().ApplyReplicatedFrame(buildFrame(1, create)); err == nil {
		t.Fatal("a frame claiming 2^62 columns applied")
	}
	if _, _, _, _, err := parseManifest(hugeManifest(), "MANIFEST"); err == nil {
		t.Fatal("a manifest claiming 2^62 pages parsed")
	}
	seg := appendString(nil, "t")
	seg = appendUvarint(seg, 0) // page 0
	seg = appendUvarint(seg, 1) // one row
	seg = append(seg, 0)        // local slot 0
	seg = appendUvarint(seg, 1<<62)
	if _, _, err := parseSegFile(frameSeg(seg), func(int, []Value) error { return nil }); err == nil {
		t.Fatal("a segment row claiming 2^62 cells parsed")
	}
}

// TestApplyRefusesImpossibleOps: a CRC-valid frame naming a column or a
// slot its table cannot have must fail, not index out of range with the
// database lock held.
func TestApplyRefusesImpossibleOps(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (1, 2)")
	base := db.StateDigest()
	for name, op := range map[string][]byte{
		"short row":     appendInsertOp(nil, "t", 5, []Value{Int(9)}),
		"update column": appendUpdateOp(nil, "t", 0, 7, Int(9)),
		"slot past int": append(appendString([]byte{walOpDelete}, "t"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	} {
		if err := db.ApplyReplicatedFrame(buildFrame(db.Seq()+1, op)); err == nil {
			t.Errorf("%s: applied", name)
		}
	}
	if db.StateDigest() != base {
		t.Fatal("refused ops changed state")
	}
}

// maxFuzzSlot caps the slots a fuzzed frame may write. A replayed insert
// records every gap slot below it in the free list and materializes its
// pages, so its memory is proportional to the slot: valid input, but not
// one a fuzz iteration should pay for.
const maxFuzzSlot = 1 << 12

func FuzzReplicatedFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := [][]byte{data}
		if len(data) >= 8 {
			frames = append(frames, buildFrame(binary.BigEndian.Uint64(data), data[8:]))
		}
		// bigSlot reports an op, or an op of a prepared part, that writes a
		// slot above maxFuzzSlot.
		var bigSlot func(d *walDecoder) bool
		bigSlot = func(d *walDecoder) bool {
			for !d.done() {
				op, err := d.op()
				if err != nil {
					return false
				}
				if op.slot > maxFuzzSlot || (op.part != nil && bigSlot(&walDecoder{buf: op.part, part: true})) {
					return true
				}
			}
			return false
		}
		for _, frame := range frames {
			if len(frame) > frameHdrLen && bigSlot(&walDecoder{buf: frame[frameHdrLen:], off: 8}) {
				return
			}
			db := New()
			if err := db.ApplyReplicatedFrame(frame); err != nil {
				continue
			}
			digest := db.StateDigest()
			if err := db.ApplyReplicatedFrame(frame); err != nil || db.StateDigest() != digest {
				t.Fatalf("redelivering an applied frame was not a no-op: %v", err)
			}
		}
	})
}

// walImage is a file system holding one file, for the WAL readers, which
// only read.
type walImage struct {
	fsutil.FS
	data []byte
}

func (w walImage) ReadFile(string) ([]byte, error) { return w.data, nil }

// FuzzWALFile feeds the input, after a valid header, to the WAL readers.
// Recovery must not panic, and the batches it replays must be exactly the
// frames tap backfill returns: recovery, checkpoint truncation and
// backfill read the log through one scanner, and cut it at the same frame
// whatever the damage — a torn tail, a bad CRC, a frame that does not
// decode (the committed seeds hold one of each).
func FuzzWALFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		wal := walImage{data: append(newWALHeader(), data...)}
		batches, _, err := readWAL(wal, walFileName, 0)
		if err != nil {
			t.Fatal(err)
		}
		backlog, err := readFrames(wal, walFileName, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := SplitFrames(backlog)
		if err != nil {
			t.Fatalf("backfill returned bytes that do not split into frames: %v", err)
		}
		if len(frames) != len(batches) {
			t.Fatalf("recovery replays %d batches, backfill returns %d frames", len(batches), len(frames))
		}
		for i, frame := range frames {
			if seq, err := FrameSeq(frame); err != nil || seq != batches[i].seq {
				t.Fatalf("batch %d: recovery has seq %d, backfill %d (%v)", i, batches[i].seq, seq, err)
			}
			for _, op := range batches[i].ops {
				if op.slot > maxFuzzSlot {
					return
				}
			}
		}
		// Replay as Open does over a directory with no manifest.
		db := New()
		for _, b := range batches {
			for _, op := range b.ops {
				if db.applyOp(op) != nil {
					return
				}
			}
		}
	})
}

// segRows decodes a segment into its table, page id and re-encoded rows.
func segRows(seg []byte) (string, int, [][]byte, *rowPage, error) {
	var rows [][]byte
	p := &rowPage{}
	table, id, err := parseSegFile(seg, func(local int, row []Value) error {
		var enc []byte
		for _, v := range row {
			enc = appendValue(enc, v)
		}
		rows = append(rows, append([]byte{byte(local)}, enc...))
		p.rows[local] = row
		p.live++
		return nil
	})
	return table, id, rows, p, err
}

func FuzzPageSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, seg := range [][]byte{data, frameSeg(data)} {
			table, id, rows, p, err := segRows(seg)
			if err != nil {
				continue
			}
			again := buildSegFile(table, id, p)
			table2, id2, rows2, p2, err := segRows(again)
			if err != nil {
				t.Fatalf("a rebuilt segment does not parse: %v", err)
			}
			if table2 != table || id2 != id || !reflect.DeepEqual(rows2, rows) {
				t.Fatalf("segment round trip: page %d of %q with %d rows came back as page %d of %q with %d", id, table, len(rows), id2, table2, len(rows2))
			}
			if !bytes.Equal(buildSegFile(table2, id2, p2), again) {
				t.Fatal("re-encoding a rebuilt segment changed its bytes")
			}
		}
	})
}

func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, man := range [][]byte{data, frameManifest(data)} {
			walSeq, fileSeq, schema, entries, err := parseManifest(man, "MANIFEST")
			if err != nil {
				continue
			}
			again := buildManifest(walSeq, fileSeq, schema, entries)
			walSeq2, fileSeq2, schema2, entries2, err := parseManifest(again, "MANIFEST")
			if err != nil {
				t.Fatalf("a rebuilt manifest does not parse: %v", err)
			}
			if walSeq2 != walSeq || fileSeq2 != fileSeq || !bytes.Equal(schema2, schema) || !reflect.DeepEqual(entries2, entries) {
				t.Fatalf("manifest round trip: %d %d %d entries came back as %d %d %d entries", walSeq, fileSeq, len(entries), walSeq2, fileSeq2, len(entries2))
			}
		}
	})
}
