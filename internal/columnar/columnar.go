// Package columnar re-encodes sealed warehouse hours into column-chunk
// files so day-scale batch queries read IO proportional to the query, not
// the corpus — the §3/§5 rollup scripts touch two or three columns of an
// eight-column event, and the row-oriented hour files make them decode
// all eight.
//
// A sealed hour directory gains, beside its row files, one group of
// column files per chunk of ChunkRows events (in warehouse scan order):
//
//	_col-00000.meta        zone map: row count, min/max timestamp, min/max name
//	_col-00000.initiator   run-length pairs (initiator byte, run)
//	_col-00000.name        sorted per-chunk dictionary + uvarint IDs
//	_col-00000.user_id     zig-zag varints
//	_col-00000.session_id  sorted per-chunk dictionary + uvarint IDs
//	_col-00000.ip          sorted per-chunk dictionary + uvarint IDs
//	_col-00000.timestamp   zig-zag varint deltas from the previous row
//	_col-00000.logged_in   run-length pairs (bool byte, run)
//	_col-00000.details     per row: pair count + length-prefixed k/v, keys sorted
//	_col-SEALED            hour-level completion marker: total chunk count
//
// Every file is framed with the repository's recordio CRC discipline, so
// a torn tail reads back as recordio.ErrTruncated and a flipped bit as
// recordio.ErrCorrupt — the same failure vocabulary as the WAL and the
// spill files. The leading underscore makes the files auxiliary to every
// row scanner (warehouse.IsAuxiliary), so row and columnar layouts
// coexist in one directory and either can serve a scan.
//
// Sealing is crash-safe at two levels: within a chunk the meta file is
// written last, and across the hour the _col-SEALED marker is written
// after the last chunk. An hour without the marker is not columnar —
// scans keep reading its row files, and the next SealHour removes the
// orphaned chunk files and re-seals from scratch — so a seal that dies
// mid-hour can never silently drop the rows it had not reached. The log
// mover goes one step further: it feeds an HourEncoder the records it is
// merging, in its private tmp directory, so the rename that
// publishes an hour publishes its chunks and marker with it.
//
// The reader side has two entry points over one set of decoders
// (read.go). EventsFormat (format.go) is a pushdown-aware
// dataflow.InputFormat whose splits are chunk meta files. A pushed-down
// Selection prunes whole chunks against the meta zone maps without
// opening a column file, reads only the column streams the projection
// and predicate reference, and applies the exact filter to what
// survives — so the zone map is allowed to be a superset. The exact name
// filter is evaluated once per dictionary entry of each surviving chunk,
// and each row looks its entry's verdict up by ID. ScanDay
// (scan.go) is the plain day scan of the §4.2 daily passes: it hands a
// callback each event's projected columns as a Row, with no tuple boxing,
// and Row.Event assembles the whole event when a pass wants one,
// decoding a chunk's remaining columns at most once. Both read an hour
// without the _col-SEALED marker from its row files. A chunk's meta row
// count sizes every column vector, so it is checked against the chunk's
// timestamp file before anything is allocated.
package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/warehouse"
)

// DefaultChunkRows is the chunk size of SealHour: large enough that
// per-chunk dictionaries amortize, small enough that zone maps on a
// time-ordered hour give selective time windows real pruning.
const DefaultChunkRows = 8192

// chunkCols is the column order of a chunk, identical to
// dataflow.ClientEventSchema. The derived logged_in flag is materialized
// as its own (cheap, run-length) column so a projected scan never decodes
// user_id just to re-derive it.
var chunkCols = []string{"initiator", "name", "user_id", "session_id", "ip", "timestamp", "logged_in", "details"}

const (
	metaMagic   = 0x636f6c // "col"
	sealedMagic = 0x73656c // "sel"
	metaVersion = 1
)

// chunkBase returns the path prefix of chunk i in dir, without extension.
func chunkBase(dir string, i int) string {
	return fmt.Sprintf("%s/_col-%05d", dir, i)
}

// metaPath returns the zone-map file of chunk i in dir.
func metaPath(dir string, i int) string { return chunkBase(dir, i) + ".meta" }

// sealedPath returns the hour-level completion marker of dir.
func sealedPath(dir string) string { return dir + "/_col-SEALED" }

// HasColumnar reports whether dir has been fully sealed into column
// chunks. Chunk files without the completion marker — a seal that died
// mid-hour — do not count: the hour keeps scanning through its row files
// until a re-seal finishes the job.
func HasColumnar(fs *hdfs.FS, dir string) bool {
	return fs.Exists(sealedPath(dir))
}

// encodeSealed builds the completion-marker file: one CRC record naming
// the chunk count of the sealed hour.
func encodeSealed(chunks int) []byte {
	var rec []byte
	rec = binary.AppendUvarint(rec, sealedMagic)
	rec = binary.AppendUvarint(rec, metaVersion)
	rec = binary.AppendUvarint(rec, uint64(chunks))
	f := newFramed()
	f.w.Append(rec)
	return f.buf.Bytes()
}

// sealedChunks reads the completion marker's chunk count.
func sealedChunks(fs *hdfs.FS, dir string) (int, error) {
	path := sealedPath(dir)
	rec, err := oneRecord(fs, path)
	if err != nil {
		return 0, err
	}
	c := recordio.NewCursor(rec)
	if magic := c.Uvarint("magic"); c.Ok() && magic != sealedMagic {
		return 0, fmt.Errorf("columnar: %s: %w: bad magic %#x", path, recordio.ErrCorrupt, magic)
	}
	if v := c.Uvarint("version"); c.Ok() && v != metaVersion {
		return 0, fmt.Errorf("columnar: %s: %w: unsupported seal version %d", path, recordio.ErrCorrupt, v)
	}
	n := c.Uvarint("chunks")
	if err := c.Err(); err != nil {
		return 0, fmt.Errorf("columnar: %s: %w", path, err)
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("columnar: %s: %w: %d chunks", path, recordio.ErrCorrupt, n)
	}
	return int(n), nil
}

// removeTornSeal deletes the leftover _col- files of a seal that died
// before writing its completion marker, so the retry starts clean — its
// chunk boundaries need not line up with the dead attempt's.
func removeTornSeal(fs *hdfs.FS, dir string) error {
	infos, err := fs.Walk(dir)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		if strings.Contains(fi.Path, "/_col-") {
			if err := fs.Delete(fi.Path, false); err != nil {
				return fmt.Errorf("columnar: clean torn seal %s: %w", fi.Path, err)
			}
		}
	}
	return nil
}

// SealHour re-encodes one warehouse hour into column chunks of
// DefaultChunkRows, returning the number of chunks written. Sealing is
// idempotent: an hour whose completion marker exists (or that does not
// exist at all) is left alone with n == 0, while a torn earlier attempt
// — chunks but no marker — is cleaned up and re-sealed.
func SealHour(fs *hdfs.FS, category string, hour time.Time) (int, error) {
	return SealHourChunks(fs, category, hour, DefaultChunkRows)
}

// SealHourChunks is SealHour with an explicit chunk size (tests use tiny
// chunks to exercise pruning on small corpora).
func SealHourChunks(fs *hdfs.FS, category string, hour time.Time, chunkRows int) (int, error) {
	dir := warehouse.HourDir(category, hour)
	if !fs.Exists(dir) || HasColumnar(fs, dir) {
		return 0, nil
	}
	if err := removeTornSeal(fs, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	enc := NewHourEncoder(fs, dir, chunkRows)
	if err := warehouse.ScanHour(fs, category, hour, enc.Add); err != nil {
		return enc.chunks, err
	}
	n, err := enc.Finish()
	if err != nil {
		return n, err
	}
	tmSealHourNs.ObserveSince(t0)
	return n, nil
}

// HourEncoder encodes a stream of events, in the hour's row-scan order,
// into the column chunks of one hour directory: every chunkRows events
// become one chunk, and Finish writes the last partial chunk and then the
// _col-SEALED marker. SealHourChunks feeds it from a scan of a published
// hour; the log mover feeds it the records it is merging, into its
// private tmp directory, so the rename that publishes the row files
// publishes the columns with them.
type HourEncoder struct {
	fs        *hdfs.FS
	dir       string
	chunkRows int
	buf       []events.ClientEvent
	chunks    int
}

// NewHourEncoder returns an encoder writing chunks of chunkRows events
// (<= 0 means DefaultChunkRows) into dir.
func NewHourEncoder(fs *hdfs.FS, dir string, chunkRows int) *HourEncoder {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &HourEncoder{fs: fs, dir: dir, chunkRows: chunkRows}
}

// Add appends a copy of e to the current chunk, writing the chunk once it
// holds chunkRows events.
func (h *HourEncoder) Add(e *events.ClientEvent) error {
	h.buf = append(h.buf, *e)
	if len(h.buf) >= h.chunkRows {
		return h.flush()
	}
	return nil
}

func (h *HourEncoder) flush() error {
	if len(h.buf) == 0 {
		return nil
	}
	if err := writeChunk(h.fs, h.dir, h.chunks, h.buf); err != nil {
		return err
	}
	tmSealChunks.Inc()
	tmSealRows.Add(int64(len(h.buf)))
	h.chunks++
	clear(h.buf)
	h.buf = h.buf[:0]
	return nil
}

// Finish writes the last partial chunk and the completion marker,
// returning the number of chunks written.
func (h *HourEncoder) Finish() (int, error) {
	if err := h.flush(); err != nil {
		return h.chunks, err
	}
	if err := h.fs.WriteFile(sealedPath(h.dir), encodeSealed(h.chunks)); err != nil {
		return h.chunks, fmt.Errorf("columnar: write seal marker %s: %w", sealedPath(h.dir), err)
	}
	return h.chunks, nil
}

// Discard removes every column file in the encoder's directory, leaving
// it row-only.
func (h *HourEncoder) Discard() error { return removeTornSeal(h.fs, h.dir) }

// SealDay seals every existing hour of a category's UTC day, returning
// the total chunk count. Hours seal concurrently on up to
// runtime.GOMAXPROCS(0) workers; use SealDayParallel for an explicit
// worker cap (1 forces the serial loop).
func SealDay(fs *hdfs.FS, category string, day time.Time) (int, error) {
	return SealDayParallel(fs, category, day, 0)
}

// SealDayParallel is SealDay with an explicit worker cap: <= 0 means
// runtime.GOMAXPROCS(0), 1 seals hour by hour in order.
func SealDayParallel(fs *hdfs.FS, category string, day time.Time, workers int) (int, error) {
	day = day.UTC().Truncate(24 * time.Hour)
	hours := make([]time.Time, 24)
	for h := range hours {
		hours[h] = day.Add(time.Duration(h) * time.Hour)
	}
	return SealHoursParallel(fs, category, hours, workers)
}

// SealHoursParallel seals a set of hours on a bounded worker pool. Hour
// directories are disjoint, so the chunk files each worker writes are
// exactly the files the serial loop would write. Error reporting is
// deterministic: the earliest listed hour's failure wins, and the
// returned total counts the hours before it plus the failing hour's
// partial chunks — the serial loop's contract. Hours after a failure
// may still have sealed (sealing is idempotent and additive); their
// chunks are not claimed by this call's count.
func SealHoursParallel(fs *hdfs.FS, category string, hours []time.Time, workers int) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(hours) {
		workers = len(hours)
	}
	if workers <= 1 {
		total := 0
		for _, h := range hours {
			n, err := SealHour(fs, category, h)
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	tmSealWorkers.SetMax(int64(workers))
	ns := make([]int, len(hours))
	errs := make([]error, len(hours))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				ns[i], errs[i] = SealHour(fs, category, hours[i])
			}
		}()
	}
	for i := range hours {
		idx <- i
	}
	close(idx)
	wg.Wait()
	total := 0
	for i := range hours {
		total += ns[i]
		if errs[i] != nil {
			return total, errs[i]
		}
	}
	return total, nil
}

// framed wraps a payload-building function in one CRC-framed file image.
type framed struct {
	buf bytes.Buffer
	w   *recordio.CRCWriter
}

func newFramed() *framed {
	f := &framed{}
	f.w = recordio.NewCRCWriter(&f.buf)
	return f
}

// writeChunk encodes one chunk of events (column files first, the meta
// file last, so a torn seal never claims a chunk it did not finish).
func writeChunk(fs *hdfs.FS, dir string, idx int, evs []events.ClientEvent) error {
	base := chunkBase(dir, idx)
	names := make([]string, len(evs))
	for i := range evs {
		names[i] = evs[i].Name.String()
	}
	cols := map[string][]byte{
		"initiator":  encodeInitiator(evs),
		"name":       encodeDict(len(evs), func(i int) string { return names[i] }),
		"user_id":    encodeUserIDs(evs),
		"session_id": encodeDict(len(evs), func(i int) string { return evs[i].SessionID }),
		"ip":         encodeDict(len(evs), func(i int) string { return evs[i].IP }),
		"timestamp":  encodeTimestamps(evs),
		"logged_in":  encodeLoggedIn(evs),
		"details":    encodeDetails(evs),
	}
	for _, col := range chunkCols {
		if err := fs.WriteFile(base+"."+col, cols[col]); err != nil {
			return fmt.Errorf("columnar: write chunk %s.%s: %w", base, col, err)
		}
	}
	if err := fs.WriteFile(base+".meta", encodeMeta(evs, names)); err != nil {
		return fmt.Errorf("columnar: write chunk %s.meta: %w", base, err)
	}
	return nil
}

// encodeMeta builds the zone-map file: one CRC record with the row count,
// the timestamp range, and the lexical name range of the chunk.
func encodeMeta(evs []events.ClientEvent, names []string) []byte {
	minTs, maxTs := evs[0].Timestamp, evs[0].Timestamp
	minName, maxName := names[0], names[0]
	for i := range evs[1:] {
		e := &evs[i+1]
		if e.Timestamp < minTs {
			minTs = e.Timestamp
		}
		if e.Timestamp > maxTs {
			maxTs = e.Timestamp
		}
		n := names[i+1]
		if n < minName {
			minName = n
		}
		if n > maxName {
			maxName = n
		}
	}
	var rec []byte
	rec = binary.AppendUvarint(rec, metaMagic)
	rec = binary.AppendUvarint(rec, metaVersion)
	rec = binary.AppendUvarint(rec, uint64(len(evs)))
	rec = binary.AppendVarint(rec, minTs)
	rec = binary.AppendVarint(rec, maxTs)
	rec = appendString(rec, minName)
	rec = appendString(rec, maxName)
	rec = binary.AppendUvarint(rec, uint64(len(chunkCols)))
	for _, col := range chunkCols {
		rec = appendString(rec, col)
	}
	f := newFramed()
	f.w.Append(rec)
	return f.buf.Bytes()
}

// appendString appends a uvarint length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeDict encodes one string column as two CRC records: the sorted
// per-chunk dictionary, then one uvarint dictionary ID per row.
func encodeDict(rows int, get func(i int) string) []byte {
	distinct := make(map[string]int)
	for i := 0; i < rows; i++ {
		distinct[get(i)] = 0
	}
	dict := make([]string, 0, len(distinct))
	for s := range distinct {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	for i, s := range dict {
		distinct[s] = i
	}
	var d []byte
	d = binary.AppendUvarint(d, uint64(len(dict)))
	for _, s := range dict {
		d = appendString(d, s)
	}
	var ids []byte
	for i := 0; i < rows; i++ {
		ids = binary.AppendUvarint(ids, uint64(distinct[get(i)]))
	}
	f := newFramed()
	f.w.Append(d)
	f.w.Append(ids)
	return f.buf.Bytes()
}

// encodeUserIDs packs the user_id column as zig-zag varints.
func encodeUserIDs(evs []events.ClientEvent) []byte {
	var rec []byte
	for i := range evs {
		rec = binary.AppendVarint(rec, evs[i].UserID)
	}
	f := newFramed()
	f.w.Append(rec)
	return f.buf.Bytes()
}

// encodeTimestamps delta-codes the timestamp column: each row stores the
// zig-zag difference from the previous row (the first from zero), so a
// time-ordered hour costs a byte or two per row.
func encodeTimestamps(evs []events.ClientEvent) []byte {
	var rec []byte
	prev := int64(0)
	for i := range evs {
		rec = binary.AppendVarint(rec, evs[i].Timestamp-prev)
		prev = evs[i].Timestamp
	}
	f := newFramed()
	f.w.Append(rec)
	return f.buf.Bytes()
}

// encodeInitiator run-length encodes the initiator column as (byte, run)
// pairs — a handful of distinct values with long runs.
func encodeInitiator(evs []events.ClientEvent) []byte {
	return encodeRLE(evs, func(e *events.ClientEvent) byte { return byte(e.Initiator) })
}

// encodeLoggedIn run-length encodes the derived logged_in flag.
func encodeLoggedIn(evs []events.ClientEvent) []byte {
	return encodeRLE(evs, func(e *events.ClientEvent) byte {
		if e.LoggedIn() {
			return 1
		}
		return 0
	})
}

// encodeRLE encodes one byte-valued column as (value, run-length) pairs
// in a single CRC record.
func encodeRLE(evs []events.ClientEvent, get func(*events.ClientEvent) byte) []byte {
	var rec []byte
	i := 0
	for i < len(evs) {
		v := get(&evs[i])
		j := i + 1
		for j < len(evs) && get(&evs[j]) == v {
			j++
		}
		rec = append(rec, v)
		rec = binary.AppendUvarint(rec, uint64(j-i))
		i = j
	}
	f := newFramed()
	f.w.Append(rec)
	return f.buf.Bytes()
}

// encodeDetails encodes the details map column: per row a pair count then
// length-prefixed key/value strings, keys sorted for determinism. Zero
// pairs round-trips as a nil map, matching the thrift row decoder.
func encodeDetails(evs []events.ClientEvent) []byte {
	var rec []byte
	var keys []string
	for i := range evs {
		e := &evs[i]
		rec = binary.AppendUvarint(rec, uint64(len(e.Details)))
		keys = keys[:0]
		for k := range e.Details {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			rec = appendString(rec, k)
			rec = appendString(rec, e.Details[k])
		}
	}
	f := newFramed()
	f.w.Append(rec)
	return f.buf.Bytes()
}
