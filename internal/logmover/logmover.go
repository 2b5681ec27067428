// Package logmover implements the pipeline stage that copies logs from the
// per-datacenter staging clusters into the main data warehouse (§2).
//
// For each category-hour the mover:
//
//  1. waits until every datacenter has sealed the hour (the _SEALED marker
//     written after all aggregators flushed);
//  2. applies sanity checks — each staging file must be a well-formed
//     gzipped record stream; corrupt files fail the move rather than
//     silently losing data;
//  3. merges the many small per-aggregator files into a few big warehouse
//     files by copying each validated file's gzip members verbatim — a
//     gzip file may hold several members (RFC 1952), and every reader
//     decodes them as one record stream — so nothing is compressed twice.
//     Records are re-framed and re-compressed only when a Transform
//     rewrites them, or when one staging file alone is larger than
//     TargetFileBytes and must be split;
//  4. atomically slides the hour into /logs/<category>/YYYY/MM/DD/HH/ with
//     a single directory rename;
//  5. records an audit trace of what moved, how many records, and from
//     where.
//
// Within a merged file, record order is the concatenation order of staging
// files; across files it is unspecified — exactly the "partial
// chronological order" the paper warns downstream analyses about.
package logmover

import (
	"errors"
	"fmt"
	"time"

	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/warehouse"
)

// Errors reported by the mover.
var (
	// ErrHourIncomplete means at least one datacenter has not sealed the
	// hour yet; the move is retried later.
	ErrHourIncomplete = errors.New("logmover: hour not sealed by all datacenters")
	// ErrAlreadyMoved means the warehouse already contains this hour.
	ErrAlreadyMoved = errors.New("logmover: hour already present in warehouse")
	// ErrCorruptFile means a staging file failed its sanity check.
	ErrCorruptFile = errors.New("logmover: corrupt staging file")
)

// Source is one datacenter's staging cluster.
type Source struct {
	Datacenter string
	FS         *hdfs.FS
}

// AuditRecord is the execution trace of one category-hour move.
type AuditRecord struct {
	Category string
	Hour     time.Time
	Started  time.Time
	Finished time.Time
	FilesIn  int
	FilesOut int
	Records  int64
	// Dropped counts records removed by the Transform hook.
	Dropped     int64
	BytesIn     int64
	BytesOut    int64
	Datacenters []string
}

// Mover copies sealed staging hours into the warehouse.
type Mover struct {
	Warehouse *hdfs.FS
	Sources   []Source
	// TargetFileBytes is the approximate uncompressed size of each merged
	// warehouse file ("merging many small files into a few big ones", §2).
	// A file rolls once it reaches the target, at a staging-file boundary
	// when files are copied whole.
	TargetFileBytes int64
	// Transform, when set, rewrites each record on its way into the
	// warehouse — §2's "sanity checks and transformations". Returning nil
	// drops the record (counted in the audit); a typical transform is the
	// §3.2 anonymization policy. Errors abort the move.
	Transform func(category string, rec []byte) ([]byte, error)
	// SealColumnar encodes each client-events hour into column chunks
	// (internal/columnar) from the records the move is merging, so the
	// rename that publishes the hour's row files publishes its columns
	// too, and batch queries get zone-map pruning and projection pushdown
	// from the moment it lands. Other categories are unaffected: sealing
	// decodes events.ClientEvent, which only the unified category stores.
	// A record that is not a valid ClientEvent fails only the seal: the
	// hour still publishes row-only, and the move returns the seal error.
	SealColumnar bool
	// Clock stamps audit records; nil uses time.Now.
	Clock func() time.Time

	audits []AuditRecord
}

// New returns a Mover targeting the given warehouse filesystem.
func New(wh *hdfs.FS, sources ...Source) *Mover {
	return &Mover{
		Warehouse:       wh,
		Sources:         sources,
		TargetFileBytes: 4 << 20,
		Clock:           time.Now,
	}
}

// Audits returns the execution traces of completed moves.
func (m *Mover) Audits() []AuditRecord { return m.audits }

// HourSealed reports whether every datacenter has sealed the category-hour.
func (m *Mover) HourSealed(category string, hour time.Time) bool {
	dir := warehouse.StagingHourDir(category, hour)
	for _, src := range m.Sources {
		if !src.FS.Exists(dir + "/" + warehouse.SealedMarker) {
			return false
		}
	}
	return true
}

// MoveHour merges one sealed category-hour from all staging clusters into
// the warehouse and atomically publishes it. On a move error the
// warehouse is untouched; a seal error is returned after the hour has
// published row-only.
func (m *Mover) MoveHour(category string, hour time.Time) (AuditRecord, error) {
	rec, sealErr, err := m.moveHour(category, hour)
	if err != nil {
		return rec, err
	}
	return rec, sealErr
}

// moveHour publishes one hour. err means nothing was published; sealErr
// means the hour published row-only because its columnar seal failed.
func (m *Mover) moveHour(category string, hour time.Time) (rec AuditRecord, sealErr, err error) {
	rec = AuditRecord{Category: category, Hour: hour.UTC().Truncate(time.Hour), Started: m.Clock()}
	destDir := warehouse.HourDir(category, hour)
	if m.Warehouse.Exists(destDir) {
		return rec, nil, fmt.Errorf("%w: %s", ErrAlreadyMoved, destDir)
	}
	if !m.HourSealed(category, hour) {
		return rec, nil, fmt.Errorf("%w: %s %s", ErrHourIncomplete, category, warehouse.HourPath(hour))
	}

	tmpDir := fmt.Sprintf("%s/mover/%s/%s", warehouse.TmpRoot, category, warehouse.HourPath(hour))
	// A previous failed attempt may have left debris; start clean.
	if m.Warehouse.Exists(tmpDir) {
		if err := m.Warehouse.Delete(tmpDir, true); err != nil {
			return rec, nil, err
		}
	}

	merger := newMerger(m.Warehouse, tmpDir, m.TargetFileBytes)
	// The column encoder writes beside the merged row files, in their
	// order; its first failure stops the seal but not the move.
	var enc *columnar.HourEncoder
	if m.SealColumnar && category == events.Category {
		enc = columnar.NewHourEncoder(m.Warehouse, tmpDir, columnar.DefaultChunkRows)
	}
	seal := func(r []byte) {
		if enc == nil || sealErr != nil {
			return
		}
		var e events.ClientEvent
		if err := e.Unmarshal(r); err != nil {
			sealErr = fmt.Errorf("logmover: seal %s %s: %w", category, warehouse.HourPath(hour), err)
			return
		}
		sealErr = enc.Add(&e)
	}

	srcDir := warehouse.StagingHourDir(category, hour)
	type consumed struct {
		fs   *hdfs.FS
		path string
	}
	var toDelete []consumed
	for _, src := range m.Sources {
		infos, err := src.FS.Walk(srcDir)
		if errors.Is(err, hdfs.ErrNotFound) {
			continue
		}
		if err != nil {
			return rec, nil, err
		}
		dcHadData := false
		for _, fi := range infos {
			if fi.Path == srcDir+"/"+warehouse.SealedMarker {
				toDelete = append(toDelete, consumed{src.FS, fi.Path})
				continue
			}
			data, err := src.FS.ReadFile(fi.Path)
			if err != nil {
				return rec, nil, err
			}
			// The sanity check inflates every member, verifies its CRC-32
			// and length trailer, and parses every frame to a clean end:
			// only then may the file's bytes be copied as they are.
			// Transformed records are merged as they are scanned.
			var n, raw int64
			err = recordio.ScanGzipFile(data, func(r []byte) error {
				if m.Transform != nil {
					out, terr := m.Transform(category, r)
					if terr != nil {
						return terr
					}
					if out == nil {
						rec.Dropped++
						return nil
					}
					r = out
					if err := merger.append(r); err != nil {
						return err
					}
				}
				n++
				raw += int64(len(r))
				seal(r)
				return nil
			})
			if err != nil {
				return rec, nil, fmt.Errorf("%w: %s from %s: %v", ErrCorruptFile, fi.Path, src.Datacenter, err)
			}
			if m.Transform == nil && n > 0 {
				if err := merger.copyFile(data, raw); err != nil {
					return rec, nil, err
				}
			}
			rec.FilesIn++
			rec.Records += n
			rec.BytesIn += fi.Size
			dcHadData = true
			toDelete = append(toDelete, consumed{src.FS, fi.Path})
		}
		if dcHadData {
			rec.Datacenters = append(rec.Datacenters, src.Datacenter)
		}
	}
	filesOut, bytesOut, err := merger.close()
	if err != nil {
		return rec, nil, err
	}
	rec.FilesOut = filesOut
	rec.BytesOut = bytesOut
	if enc != nil && filesOut > 0 {
		if sealErr == nil {
			_, sealErr = enc.Finish()
		}
		if sealErr != nil {
			if err := enc.Discard(); err != nil {
				return rec, nil, err
			}
		}
	}

	// The atomic slide: one rename publishes the whole hour, row files and
	// column chunks together.
	if filesOut > 0 {
		if err := m.Warehouse.Rename(tmpDir, destDir); err != nil {
			return rec, nil, err
		}
	} else if err := m.Warehouse.MkdirAll(destDir); err != nil {
		return rec, nil, err
	}

	// Source files are consumed only after the hour is published.
	for _, c := range toDelete {
		if err := c.fs.Delete(c.path, false); err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			return rec, nil, err
		}
	}
	rec.Finished = m.Clock()
	m.audits = append(m.audits, rec)
	return rec, sealErr, nil
}

// MoveAllSealed scans staging for sealed category-hours and moves each one,
// returning the audit records of successful moves. Categories are
// discovered from the staging directory trees. A seal error does not stop
// the pass: its hour is published row-only, and the first such error is
// returned after every hour has moved.
func (m *Mover) MoveAllSealed() ([]AuditRecord, error) {
	type catHour struct {
		category string
		hour     time.Time
	}
	seen := make(map[catHour]bool)
	var order []catHour
	for _, src := range m.Sources {
		infos, err := src.FS.Walk(warehouse.StagingRoot)
		// A missing staging root means nothing staged yet; an unavailable
		// cluster defers its hours to a later pass (they cannot pass the
		// seal barrier this round anyway).
		if errors.Is(err, hdfs.ErrNotFound) || errors.Is(err, hdfs.ErrUnavailable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, fi := range infos {
			cat, hour, ok := parseStagingPath(fi.Path)
			if !ok {
				continue
			}
			ch := catHour{cat, hour}
			if !seen[ch] {
				seen[ch] = true
				order = append(order, ch)
			}
		}
	}
	var recs []AuditRecord
	var firstSealErr error
	for _, ch := range order {
		if !m.HourSealed(ch.category, ch.hour) {
			continue
		}
		if m.Warehouse.Exists(warehouse.HourDir(ch.category, ch.hour)) {
			continue
		}
		rec, sealErr, err := m.moveHour(ch.category, ch.hour)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		if firstSealErr == nil {
			firstSealErr = sealErr
		}
	}
	return recs, firstSealErr
}

// parseStagingPath extracts (category, hour) from
// /staging/<category>/YYYY/MM/DD/HH/<file>.
func parseStagingPath(p string) (string, time.Time, bool) {
	const prefix = warehouse.StagingRoot + "/"
	if len(p) <= len(prefix) || p[:len(prefix)] != prefix {
		return "", time.Time{}, false
	}
	// The remainder must be category/YYYY/MM/DD/HH/file.
	parts := splitN(p[len(prefix):], '/', 6)
	if len(parts) != 6 {
		return "", time.Time{}, false
	}
	var y, mo, d, h int
	for i, dst := range []*int{&y, &mo, &d, &h} {
		if _, err := fmt.Sscanf(parts[i+1], "%d", dst); err != nil {
			return "", time.Time{}, false
		}
	}
	return parts[0], time.Date(y, time.Month(mo), d, h, 0, 0, 0, time.UTC), true
}

func splitN(s string, sep byte, n int) []string {
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(s) && len(out) < n-1; i++ {
		if s[i] == sep {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

// merger builds the merged output files. Each is a sequence of whole gzip
// members: validated staging files copied verbatim, and re-framed records
// compressed into a member of its own. A file rolls once it holds at least
// target uncompressed record bytes.
type merger struct {
	fs      *hdfs.FS
	dir     string
	target  int64
	buf     memBuf
	member  *recordio.GzipWriter // open re-framed member, nil between members
	raw     int64
	seq     int
	files   int
	outSize int64
}

type memBuf struct{ data []byte }

func (m *memBuf) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

func newMerger(fs *hdfs.FS, dir string, target int64) *merger {
	return &merger{fs: fs, dir: dir, target: target}
}

// copyFile merges one validated staging file holding raw uncompressed
// record bytes. A file that fits the target is appended as it is, its
// members becoming members of the output; a file larger than the target
// on its own is re-framed so that it can split across outputs.
func (m *merger) copyFile(data []byte, raw int64) error {
	if raw > m.target {
		return recordio.ScanGzipFile(data, m.append)
	}
	if err := m.closeMember(); err != nil {
		return err
	}
	m.buf.data = append(m.buf.data, data...)
	m.raw += raw
	if m.raw >= m.target {
		return m.roll()
	}
	return nil
}

// append re-frames one record into the open member.
func (m *merger) append(rec []byte) error {
	if m.member == nil {
		m.member = recordio.NewGzipWriter(&m.buf)
	}
	if err := m.member.Append(rec); err != nil {
		return err
	}
	m.raw += int64(len(rec))
	if m.raw >= m.target {
		return m.roll()
	}
	return nil
}

func (m *merger) closeMember() error {
	if m.member == nil {
		return nil
	}
	err := m.member.Close()
	m.member = nil
	return err
}

func (m *merger) roll() error {
	if err := m.closeMember(); err != nil {
		return err
	}
	if len(m.buf.data) == 0 {
		return nil
	}
	path := fmt.Sprintf("%s/part-%05d.gz", m.dir, m.seq)
	m.seq++
	if err := m.fs.WriteFile(path, m.buf.data); err != nil {
		return err
	}
	m.files++
	m.outSize += int64(len(m.buf.data))
	m.buf.data = nil
	m.raw = 0
	return nil
}

func (m *merger) close() (int, int64, error) {
	if err := m.roll(); err != nil {
		return 0, 0, err
	}
	return m.files, m.outSize, nil
}
