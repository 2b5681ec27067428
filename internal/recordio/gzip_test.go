package recordio

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// gzipStream gzips recs as one member.
func gzipStream(t *testing.T, recs ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewGzipWriter(&buf)
	for _, r := range recs {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcatenatedGzipStreamsScanAsOne: gzip files may hold several
// members (RFC 1952), so the byte concatenation of independently written
// GzipWriter outputs scans as one record stream — the records of each in
// order. The log mover merges staging files by exactly this concatenation.
func TestConcatenatedGzipStreamsScanAsOne(t *testing.T) {
	var cat []byte
	var want []string
	for p := 0; p < 4; p++ {
		var recs []string
		for i := 0; i < 50*p; i++ { // member 0 holds no records
			recs = append(recs, fmt.Sprintf("part%d-rec%03d", p, i))
		}
		cat = append(cat, gzipStream(t, recs...)...)
		want = append(want, recs...)
	}
	var got []string
	if err := ScanGzipFile(cat, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scanned %d records, want %d in member order", len(got), len(want))
	}
}

// FuzzScanGzipFile: ScanGzipFile never panics, and every failure it
// reports is ErrCorrupt, whatever the bytes — the gate the log mover
// relies on before it copies a staging file verbatim. The seed corpus in
// testdata/fuzz/FuzzScanGzipFile holds single- and multi-member streams,
// an empty member, and damaged streams: trailing garbage, a truncated
// member, a flipped CRC-32 trailer.
func FuzzScanGzipFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		err := ScanGzipFile(data, func([]byte) error { return nil })
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, not ErrCorrupt", err)
		}
	})
}
