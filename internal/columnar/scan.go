package columnar

import (
	"fmt"
	"slices"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// rowCols are the columns a Row carries as plain values; a pass that
// wants the others asks for the whole event.
var rowCols = []string{"name", "user_id", "session_id", "ip", "timestamp"}

// Row is one event of a ScanDay pass. The projected columns hold their
// values; the others are zero. A Row is only valid inside the callback
// that receives it: the scanner reuses it for the next event.
type Row struct {
	Name      string
	UserID    int64
	SessionID string
	IP        string
	Timestamp int64

	chunk *chunkScan          // sealed hour: the chunk holding the row
	row   int                 // the row's index in chunk
	ev    *events.ClientEvent // row-file hour: the decoded event
}

// Event returns the whole event behind the row. In a sealed hour the
// first call in a chunk decodes the chunk's unprojected columns, once for
// all its rows, so a pass that wants a few full events (the catalog's
// samples) pays for the wide columns only in the chunks that hold them.
func (r *Row) Event() (*events.ClientEvent, error) {
	if r.ev != nil {
		return r.ev, nil
	}
	return r.chunk.event(r.row)
}

// chunkScan is one chunk under a ScanDay pass: its meta, the columns
// decoded so far, and whether that is all of them yet.
type chunkScan struct {
	fs   *hdfs.FS
	base string
	meta chunkMeta
	cc   chunkColumns
	need map[string]bool // the projected columns
	full bool            // every column Event needs is decoded
}

func (c *chunkScan) event(row int) (*events.ClientEvent, error) {
	if !c.full {
		rest := make(map[string]bool)
		for _, col := range chunkCols {
			if col != "logged_in" && !c.need[col] {
				rest[col] = true
			}
		}
		if err := c.cc.read(c.fs, c.base, c.meta, rest); err != nil {
			return nil, err
		}
		c.full = true
	}
	return c.cc.event(c.base, row)
}

// ScanDay calls fn for every client event of a category's UTC day, in
// warehouse scan order, with the cols columns of each event (any of
// name, user_id, session_id, ip and timestamp) filled in. A sealed hour decodes only those column files of
// each chunk — the same decoders EventsFormat reads through; an hour
// without the _col-SEALED marker (never sealed, or a seal that died
// mid-hour) falls back to its row files, so the day reads whole while
// sealing is in flight. Damaged chunks fail the scan with their recordio
// error; they never fall back.
func ScanDay(fs *hdfs.FS, category string, day time.Time, cols []string, fn func(*Row) error) error {
	need := make(map[string]bool, len(cols))
	for _, col := range cols {
		if !slices.Contains(rowCols, col) {
			return fmt.Errorf("columnar: Row does not carry column %q", col)
		}
		need[col] = true
	}
	var r Row
	day = day.UTC().Truncate(24 * time.Hour)
	for h := 0; h < 24; h++ {
		hour := day.Add(time.Duration(h) * time.Hour)
		dir := warehouse.HourDir(category, hour)
		if !fs.Exists(dir) {
			continue
		}
		if !HasColumnar(fs, dir) {
			err := warehouse.ScanHour(fs, category, hour, func(e *events.ClientEvent) error {
				r.fromEvent(e, need)
				return fn(&r)
			})
			if err != nil {
				return err
			}
			continue
		}
		n, err := sealedChunks(fs, dir)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := scanChunk(fs, chunkBase(dir, i), need, &r, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanChunk reads one chunk's projected columns and calls fn per row.
func scanChunk(fs *hdfs.FS, base string, need map[string]bool, r *Row, fn func(*Row) error) error {
	m, err := readMeta(fs, base+".meta")
	if err != nil {
		return err
	}
	c := &chunkScan{fs: fs, base: base, meta: m, need: need}
	if err := c.cc.read(fs, base, m, need); err != nil {
		return err
	}
	tmChunksScanned.Inc()
	tmRowsRead.Add(int64(m.rows))
	// The projected vectors, captured before Event decodes the rest into
	// c.cc: rows keep carrying exactly the projection.
	cc := c.cc
	*r = Row{chunk: c}
	for i := 0; i < m.rows; i++ {
		r.row = i
		if cc.name.ids != nil {
			r.Name = cc.name.at(i)
		}
		if cc.userID != nil {
			r.UserID = cc.userID[i]
		}
		if cc.sessionID.ids != nil {
			r.SessionID = cc.sessionID.at(i)
		}
		if cc.ip.ids != nil {
			r.IP = cc.ip.at(i)
		}
		if cc.timestamp != nil {
			r.Timestamp = cc.timestamp[i]
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// fromEvent fills r with the projected columns of a row-file event.
func (r *Row) fromEvent(e *events.ClientEvent, need map[string]bool) {
	*r = Row{ev: e}
	if need["name"] {
		r.Name = e.Name.String()
	}
	if need["user_id"] {
		r.UserID = e.UserID
	}
	if need["session_id"] {
		r.SessionID = e.SessionID
	}
	if need["ip"] {
		r.IP = e.IP
	}
	if need["timestamp"] {
		r.Timestamp = e.Timestamp
	}
}
