// Package recordio frames variable-length records inside a byte stream and
// optionally compresses the stream with gzip. It is the on-disk layout used
// throughout the pipeline: Scribe aggregators write gzipped record streams
// to staging HDFS, the log mover concatenates them into big warehouse
// files, and the session store uses the same framing for materialized
// sequences. A gzipped stream may hold several gzip members (RFC 1952);
// its records are those of each member in turn.
//
// The format is a sequence of records, each a uvarint length followed by
// that many bytes. It supports streaming append and streaming scans without
// an index, which is all the paper's brute-force-scan workloads need.
package recordio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrCorrupt reports a malformed record frame.
var ErrCorrupt = errors.New("recordio: corrupt record stream")

// MaxRecordSize bounds a single record (16 MiB); larger declared lengths
// are treated as corruption rather than allocated.
const MaxRecordSize = 16 << 20

// Writer frames records onto an io.Writer.
type Writer struct {
	w      io.Writer
	lenBuf [binary.MaxVarintLen64]byte
	count  int64
	bytes  int64
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Append writes one record.
func (w *Writer) Append(rec []byte) error {
	n := binary.PutUvarint(w.lenBuf[:], uint64(len(rec)))
	if _, err := w.w.Write(w.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(rec); err != nil {
		return err
	}
	w.count++
	w.bytes += int64(n + len(rec))
	return nil
}

// Count returns the number of records appended.
func (w *Writer) Count() int64 { return w.count }

// Bytes returns the number of framed bytes written (before any outer
// compression).
func (w *Writer) Bytes() int64 { return w.bytes }

// Reader scans records from an io.Reader.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader returns a Reader scanning r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Next returns the next record, or io.EOF at a clean end of stream. The
// returned slice is reused by subsequent calls; copy it to retain it.
func (r *Reader) Next() ([]byte, error) {
	size, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if size > MaxRecordSize {
		return nil, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, size)
	}
	if cap(r.buf) < int(size) {
		r.buf = make([]byte, size)
	}
	r.buf = r.buf[:size]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return nil, fmt.Errorf("%w: truncated record: %v", ErrCorrupt, err)
	}
	return r.buf, nil
}

// ForEach scans every record in the stream, invoking fn on each. Scanning
// stops on the first error from fn.
func (r *Reader) ForEach(fn func(rec []byte) error) error {
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// GzipWriter couples a record Writer with gzip compression, the aggregator's
// "compressing data on the fly" (§2). Close flushes both layers.
type GzipWriter struct {
	*Writer
	gz *gzip.Writer
}

// NewGzipWriter returns a record writer that gzips its output onto w.
func NewGzipWriter(w io.Writer) *GzipWriter {
	gz := gzip.NewWriter(w)
	return &GzipWriter{Writer: NewWriter(gz), gz: gz}
}

// Close flushes the compressor; the underlying writer is not closed.
func (w *GzipWriter) Close() error { return w.gz.Close() }

// NewGzipReader returns a record reader that decompresses from r.
func NewGzipReader(r io.Reader) (*Reader, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return NewReader(gz), nil
}

// ScanGzipFile decodes a whole gzipped record stream held in memory,
// invoking fn on each record. A nil return means every member inflated,
// passed its CRC-32 and length trailer, and the records framed cleanly to
// the end; any damage is reported as ErrCorrupt.
func ScanGzipFile(data []byte, fn func(rec []byte) error) error {
	r, err := NewGzipReader(bytesReader(data))
	if err != nil {
		return err
	}
	return r.ForEach(fn)
}

// bytesReader avoids importing bytes for one call site.
type byteSliceReader struct {
	data []byte
	off  int
}

func bytesReader(data []byte) io.Reader { return &byteSliceReader{data: data} }

func (r *byteSliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
