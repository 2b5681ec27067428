package columnar

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/warehouse"
)

// frame wraps payloads in CRC records, one record each, so a test input
// gets past the checksum and reaches the decoders behind it.
func frame(payloads ...[]byte) []byte {
	f := newFramed()
	for _, p := range payloads {
		f.w.Append(p)
	}
	return f.buf.Bytes()
}

// metaRecord is a chunk meta payload claiming rows rows over the full
// column list.
func metaRecord(rows uint64) []byte {
	var rec []byte
	rec = binary.AppendUvarint(rec, metaMagic)
	rec = binary.AppendUvarint(rec, metaVersion)
	rec = binary.AppendUvarint(rec, rows)
	rec = binary.AppendVarint(rec, 0)
	rec = binary.AppendVarint(rec, 0)
	rec = appendString(rec, "a")
	rec = appendString(rec, "z")
	rec = binary.AppendUvarint(rec, uint64(len(chunkCols)))
	for _, col := range chunkCols {
		rec = appendString(rec, col)
	}
	return rec
}

// TestMetaRejectsImpossibleRowCount rewrites a sealed chunk's meta with a
// valid CRC frame but a row count the chunk cannot hold. Every reader must
// fail with ErrCorrupt: a row count of 2^64-1 used to become a negative
// slice length and panic, and a large positive one allocated without
// bound before any column was checked.
func TestMetaRejectsImpossibleRowCount(t *testing.T) {
	hourDir := warehouse.HourDir(events.Category, testDay)
	for _, rows := range []uint64{0, math.MaxUint64, 1 << 40, 33} {
		fs, _ := buildDay(t, 7)
		sealTestDay(t, fs, 32)
		meta := metaPath(hourDir, 0)
		if err := fs.Delete(meta, false); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(meta, frame(metaRecord(rows))); err != nil {
			t.Fatal(err)
		}
		for _, cols := range [][]string{nil, {"initiator"}, {"logged_in"}, {"name"}} {
			j := dataflow.NewJob("scan", fs)
			d, err := j.LoadDirsSelective([]string{hourDir}, EventsFormat{}, dataflow.Selection{Columns: cols})
			if err == nil {
				_, err = d.Tuples()
			}
			if !errors.Is(err, recordio.ErrCorrupt) {
				t.Fatalf("rows=%d cols=%v: load error = %v, want ErrCorrupt", rows, cols, err)
			}
		}
		for _, cols := range [][]string{rowCols, {"timestamp"}} {
			err := ScanDay(fs, events.Category, testDay, cols, func(*Row) error { return nil })
			if !errors.Is(err, recordio.ErrCorrupt) {
				t.Fatalf("rows=%d cols=%v: ScanDay error = %v, want ErrCorrupt", rows, cols, err)
			}
		}
	}
}

// fuzzFile turns one fuzzed payload into a column or meta file. With
// framed set the payload is wrapped in valid CRC records, so the fuzzer
// reaches the decoders behind the checksum; a dictionary column holds two
// records, so its payload starts with the uvarint length of the first.
// Without framed the bytes are stored raw, which fuzzes the framing too.
func fuzzFile(framed bool, col string, payload []byte) []byte {
	if !framed {
		return payload
	}
	if col != "name" && col != "session_id" && col != "ip" {
		return frame(payload)
	}
	l, n := binary.Uvarint(payload)
	if n <= 0 {
		return frame(payload)
	}
	rest := payload[n:]
	if l > uint64(len(rest)) {
		l = uint64(len(rest))
	}
	return frame(rest[:l], rest[l:])
}

// FuzzReadChunk feeds one chunk built from fuzzed meta and column bytes to
// both chunk readers: EventsFormat's full scan, and ScanDay's name
// projection with Row.Event decoding the rest. Neither may panic or
// allocate without bound, and every error must be ErrCorrupt or
// ErrTruncated. The seed corpus in testdata/fuzz/FuzzReadChunk holds real
// one- and four-row chunks, their metas claiming 0, 2^40 and 2^64-1 rows,
// and raw bytes.
func FuzzReadChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, framed bool, meta, initiator, name, userID, sessionID, ip, timestamp, loggedIn, details []byte) {
		fs := hdfs.New(0)
		base := chunkBase("/fuzz/hour", 0)
		files := map[string][]byte{
			"meta": meta, "initiator": initiator, "name": name, "user_id": userID, "session_id": sessionID,
			"ip": ip, "timestamp": timestamp, "logged_in": loggedIn, "details": details,
		}
		for col, payload := range files {
			if err := fs.WriteFile(base+"."+col, fuzzFile(framed, col, payload)); err != nil {
				t.Fatal(err)
			}
		}
		check := func(err error) {
			if err != nil && !errors.Is(err, recordio.ErrCorrupt) && !errors.Is(err, recordio.ErrTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
		}
		check(EventsFormat{}.readChunk(fs, base+".meta", func(dataflow.Tuple) error { return nil }))
		check(scanChunk(fs, base, map[string]bool{"name": true}, &Row{}, func(r *Row) error {
			_, err := r.Event()
			return err
		}))
	})
}
