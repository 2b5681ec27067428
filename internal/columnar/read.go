package columnar

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
)

// chunkMeta is a decoded zone map: everything pruning needs, nothing a
// pruned chunk has to pay for beyond this one small file.
type chunkMeta struct {
	rows             int
	minTs, maxTs     int64
	minName, maxName string
}

// records reads every CRC record of a column or meta file, copied out of
// the reader's reuse buffer. Terminal framing errors (ErrTruncated,
// ErrCorrupt) propagate with the path attached.
func records(fs *hdfs.FS, path string) ([][]byte, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("columnar: %s: %w", path, err)
	}
	var recs [][]byte
	r := recordio.NewCRCReader(bytes.NewReader(data))
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("columnar: %s: %w", path, err)
		}
		cp := make([]byte, len(rec))
		copy(cp, rec)
		recs = append(recs, cp)
	}
}

// oneRecord reads a file expected to hold exactly one CRC record.
func oneRecord(fs *hdfs.FS, path string) ([]byte, error) {
	recs, err := records(fs, path)
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("columnar: %s: %w: want 1 record, have %d", path, recordio.ErrCorrupt, len(recs))
	}
	return recs[0], nil
}

// readMeta decodes a chunk's zone-map file. The row count sizes every
// column vector of the chunk, so it is checked before anything trusts it:
// a chunk holds at least one row, and its timestamp column spends at
// least one byte per row, so a count beyond that file's size is a lie the
// chunk cannot back — rejected here rather than allocated.
func readMeta(fs *hdfs.FS, path string) (chunkMeta, error) {
	rec, err := oneRecord(fs, path)
	if err != nil {
		return chunkMeta{}, err
	}
	c := recordio.NewCursor(rec)
	if magic := c.Uvarint("magic"); c.Ok() && magic != metaMagic {
		return chunkMeta{}, fmt.Errorf("columnar: %s: %w: bad magic %#x", path, recordio.ErrCorrupt, magic)
	}
	if v := c.Uvarint("version"); c.Ok() && v != metaVersion {
		return chunkMeta{}, fmt.Errorf("columnar: %s: %w: unsupported chunk version %d", path, recordio.ErrCorrupt, v)
	}
	var m chunkMeta
	rows := c.Uvarint("rows")
	m.minTs = c.Varint("min_ts")
	m.maxTs = c.Varint("max_ts")
	m.minName = c.String("min_name")
	m.maxName = c.String("max_name")
	n := c.Count("columns")
	cols := make([]string, 0, n)
	for i := 0; i < n; i++ {
		cols = append(cols, c.String("column"))
	}
	if err := c.Err(); err != nil {
		return chunkMeta{}, fmt.Errorf("columnar: %s: %w", path, err)
	}
	if !slices.Equal(cols, chunkCols) {
		return chunkMeta{}, fmt.Errorf("columnar: %s: %w: columns %q, want %q", path, recordio.ErrCorrupt, cols, chunkCols)
	}
	ts, err := fs.Stat(strings.TrimSuffix(path, ".meta") + ".timestamp")
	if err != nil {
		return chunkMeta{}, fmt.Errorf("columnar: %s: %w", path, err)
	}
	if rows < 1 || rows > uint64(ts.Size) {
		return chunkMeta{}, fmt.Errorf("columnar: %s: %w: %d rows in a chunk whose timestamp column has %d bytes", path, recordio.ErrCorrupt, rows, ts.Size)
	}
	m.rows = int(rows)
	return m, nil
}

// dictColumn is a decoded dictionary column: the chunk's sorted distinct
// values and one dictionary ID per row. A filter on the column can be
// decided once per entry and looked up per row.
type dictColumn struct {
	dict []string
	ids  []uint32
}

// at returns the value of one row.
func (d dictColumn) at(row int) string { return d.dict[d.ids[row]] }

// decodeDict decodes a dictionary column file.
func decodeDict(fs *hdfs.FS, path string, rows int) (dictColumn, error) {
	recs, err := records(fs, path)
	if err != nil {
		return dictColumn{}, err
	}
	if len(recs) != 2 {
		return dictColumn{}, fmt.Errorf("columnar: %s: %w: want 2 records, have %d", path, recordio.ErrCorrupt, len(recs))
	}
	dc := recordio.NewCursor(recs[0])
	n := dc.Count("dict size")
	if uint64(n) > math.MaxUint32 {
		return dictColumn{}, fmt.Errorf("columnar: %s: %w: %d dict entries overflow the id space", path, recordio.ErrCorrupt, n)
	}
	dict := make([]string, 0, n)
	for i := 0; i < n; i++ {
		dict = append(dict, dc.String("dict entry"))
	}
	if err := dc.Err(); err != nil {
		return dictColumn{}, fmt.Errorf("columnar: %s: %w", path, err)
	}
	ic := recordio.NewCursor(recs[1])
	ids := make([]uint32, rows)
	for i := range ids {
		id := ic.Uvarint("dict id")
		if !ic.Ok() || id >= uint64(len(dict)) {
			return dictColumn{}, fmt.Errorf("columnar: %s: %w: dict id out of range", path, recordio.ErrCorrupt)
		}
		ids[i] = uint32(id)
	}
	if !ic.Empty() {
		return dictColumn{}, fmt.Errorf("columnar: %s: %w: %d trailing bytes after %d rows", path, recordio.ErrCorrupt, ic.Remaining(), rows)
	}
	return dictColumn{dict: dict, ids: ids}, nil
}

// decodeVarints decodes a zig-zag varint column into one int64 per row;
// delta == true accumulates row-over-row deltas (the timestamp column).
func decodeVarints(fs *hdfs.FS, path string, rows int, delta bool) ([]int64, error) {
	rec, err := oneRecord(fs, path)
	if err != nil {
		return nil, err
	}
	c := recordio.NewCursor(rec)
	out := make([]int64, rows)
	prev := int64(0)
	for i := range out {
		v := c.Varint("varint value")
		if delta {
			v += prev
			prev = v
		}
		out[i] = v
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("columnar: %s: %w", path, err)
	}
	if !c.Empty() {
		return nil, fmt.Errorf("columnar: %s: %w: %d trailing bytes after %d rows", path, recordio.ErrCorrupt, c.Remaining(), rows)
	}
	return out, nil
}

// decodeRLE decodes a run-length byte column into one byte per row.
func decodeRLE(fs *hdfs.FS, path string, rows int) ([]byte, error) {
	rec, err := oneRecord(fs, path)
	if err != nil {
		return nil, err
	}
	c := recordio.NewCursor(rec)
	out := make([]byte, 0, rows)
	for len(out) < rows && c.Ok() {
		v := c.Byte("rle value")
		run := c.Uvarint("rle run")
		if !c.Ok() || run == 0 || run > uint64(rows-len(out)) {
			return nil, fmt.Errorf("columnar: %s: %w: bad run length", path, recordio.ErrCorrupt)
		}
		for j := uint64(0); j < run; j++ {
			out = append(out, v)
		}
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("columnar: %s: %w", path, err)
	}
	if len(out) != rows {
		return nil, fmt.Errorf("columnar: %s: %w: short column", path, recordio.ErrCorrupt)
	}
	if !c.Empty() {
		return nil, fmt.Errorf("columnar: %s: %w: %d trailing bytes after %d rows", path, recordio.ErrCorrupt, c.Remaining(), rows)
	}
	return out, nil
}

// decodeDetails decodes the details column into one map per row; a row
// with zero pairs decodes as a nil map, exactly like the thrift decoder.
func decodeDetails(fs *hdfs.FS, path string, rows int) ([]map[string]string, error) {
	rec, err := oneRecord(fs, path)
	if err != nil {
		return nil, err
	}
	c := recordio.NewCursor(rec)
	out := make([]map[string]string, rows)
	for i := range out {
		n := c.Count("details pairs")
		if n == 0 {
			continue
		}
		m := make(map[string]string, n)
		for j := 0; j < n; j++ {
			k := c.String("details key")
			m[k] = c.String("details value")
		}
		out[i] = m
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("columnar: %s: %w", path, err)
	}
	if !c.Empty() {
		return nil, fmt.Errorf("columnar: %s: %w: %d trailing bytes after %d rows", path, recordio.ErrCorrupt, c.Remaining(), rows)
	}
	return out, nil
}

// chunkColumns holds the decoded column vectors a scan asked for; vectors
// the projection and predicate never referenced stay nil and their files
// stay unread.
type chunkColumns struct {
	initiator []byte
	name      dictColumn
	userID    []int64
	sessionID dictColumn
	ip        dictColumn
	timestamp []int64
	loggedIn  []byte
	details   []map[string]string
}

// read decodes the needed column files of one chunk into cc.
func (cc *chunkColumns) read(fs *hdfs.FS, base string, m chunkMeta, need map[string]bool) error {
	var err error
	for _, col := range chunkCols {
		if !need[col] {
			continue
		}
		path := base + "." + col
		switch col {
		case "initiator":
			cc.initiator, err = decodeRLE(fs, path, m.rows)
		case "name":
			cc.name, err = decodeDict(fs, path, m.rows)
		case "user_id":
			cc.userID, err = decodeVarints(fs, path, m.rows, false)
		case "session_id":
			cc.sessionID, err = decodeDict(fs, path, m.rows)
		case "ip":
			cc.ip, err = decodeDict(fs, path, m.rows)
		case "timestamp":
			cc.timestamp, err = decodeVarints(fs, path, m.rows, true)
		case "logged_in":
			cc.loggedIn, err = decodeRLE(fs, path, m.rows)
		case "details":
			cc.details, err = decodeDetails(fs, path, m.rows)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// value renders one column of one row as its dataflow tuple value —
// identical to what ClientEventFormat emits for the same event.
func (cc *chunkColumns) value(col string, row int) any {
	switch col {
	case "initiator":
		return events.Initiator(cc.initiator[row]).String()
	case "name":
		return cc.name.at(row)
	case "user_id":
		return cc.userID[row]
	case "session_id":
		return cc.sessionID.at(row)
	case "ip":
		return cc.ip.at(row)
	case "timestamp":
		return cc.timestamp[row]
	case "logged_in":
		return cc.loggedIn[row] == 1
	case "details":
		return cc.details[row]
	}
	panic("columnar: value of unknown column " + col)
}

// event reassembles one row as the client event the row files hold; every
// column but the derived logged_in must have been read. A name that does
// not parse passed the checksum yet is not a name, so it is corruption.
func (cc *chunkColumns) event(base string, row int) (*events.ClientEvent, error) {
	name, err := events.ParseName(cc.name.at(row))
	if err != nil {
		return nil, fmt.Errorf("columnar: %s.name: %w: %v", base, recordio.ErrCorrupt, err)
	}
	return &events.ClientEvent{
		Initiator: events.Initiator(cc.initiator[row]),
		Name:      name,
		UserID:    cc.userID[row],
		SessionID: cc.sessionID.at(row),
		IP:        cc.ip.at(row),
		Timestamp: cc.timestamp[row],
		Details:   cc.details[row],
	}, nil
}
