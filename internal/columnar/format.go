package columnar

import (
	"strings"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
)

// EventsFormat is the columnar client-events InputFormat. The zero value
// is a full scan with the row-format schema; Pushdown specializes it to a
// Selection, after which splits whose zone maps exclude the predicate are
// pruned without opening a column file and only the referenced column
// streams are decoded. The exact name filter is evaluated once per
// dictionary entry of each surviving chunk, not once per row.
//
// The format is hybrid per directory: an hour that has been sealed into
// chunks scans the chunk meta files, an hour that has not falls back to
// its row files and evaluates the same selection row-side — so a day
// where sealing is still in flight reads correctly either way.
type EventsFormat struct {
	sel dataflow.Selection
	pat events.Pattern // parsed sel.NamePattern; zero when none

	prefix    string // zone-map prune prefix of pat ("" = no name pruning)
	hasPrefix bool
}

// Schema implements dataflow.InputFormat: the projected columns, or the
// full row schema when the selection does not project.
func (f EventsFormat) Schema() dataflow.Schema {
	if f.sel.Columns == nil {
		return dataflow.ClientEventSchema
	}
	return dataflow.Schema(f.sel.Columns)
}

// Pushdown implements dataflow.PushdownFormat: the whole selection is
// absorbed into the scan — chunk pruning plus the exact filter inside
// ReadSplit — so the planner has nothing left to apply.
// A selection the format cannot honor (a malformed pattern, a column
// outside the row schema) returns ok == false and the planner falls
// through to the row path, where the same selection fails or filters
// with the ordinary row operators.
func (f EventsFormat) Pushdown(sel dataflow.Selection) (dataflow.InputFormat, dataflow.Selection, bool) {
	nf := EventsFormat{sel: sel}
	if sel.NamePattern != "" {
		pat, err := events.ParsePattern(sel.NamePattern)
		if err != nil {
			return f, sel, false
		}
		nf.pat = pat
		nf.prefix, nf.hasPrefix = pat.PrunePrefix()
	}
	for _, col := range sel.Columns {
		if _, err := dataflow.ClientEventSchema.Index(col); err != nil {
			return f, sel, false
		}
	}
	return nf, dataflow.Selection{}, true
}

// Splits implements dataflow.InputFormat: chunk meta files when the dir
// carries the _col-SEALED completion marker, row files when it does not.
// The sealed path enumerates chunks from the marker's count rather than
// by listing, so a chunk file that went missing after the seal surfaces
// as an error instead of silently shrinking the hour — and a count the
// hour cannot back stops at its first missing meta file instead of
// sizing an allocation.
func (f EventsFormat) Splits(fs *hdfs.FS, dir string) ([]dataflow.Split, error) {
	if HasColumnar(fs, dir) {
		n, err := sealedChunks(fs, dir)
		if err != nil {
			return nil, err
		}
		var splits []dataflow.Split
		for i := 0; i < n; i++ {
			fi, err := fs.Stat(metaPath(dir, i))
			if err != nil {
				return nil, err
			}
			splits = append(splits, dataflow.Split{Path: fi.Path, Size: fi.Size})
		}
		return splits, nil
	}
	return dataflow.WalkSplits(fs, dir)
}

// ReadSplit implements dataflow.InputFormat, dispatching on the split
// kind: chunk meta files go through the zone-map/column-stream path, row
// files through the thrift decoder with the same selection applied.
func (f EventsFormat) ReadSplit(fs *hdfs.FS, s dataflow.Split, emit func(dataflow.Tuple) error) error {
	if strings.HasSuffix(s.Path, ".meta") {
		return f.readChunk(fs, s.Path, emit)
	}
	return f.readRowFile(fs, s, emit)
}

// outCols returns the emitted column order.
func (f EventsFormat) outCols() []string {
	if f.sel.Columns == nil {
		return dataflow.ClientEventSchema
	}
	return f.sel.Columns
}

// prune reports whether the zone map proves no row of the chunk can
// match. The name range test uses the pattern's literal head as a string
// prefix — a superset of the componentwise match, which is exactly what
// pruning is allowed to be, since survivors still pass the exact filter.
func (f EventsFormat) prune(m chunkMeta) bool {
	if f.sel.TimeMin != 0 && m.maxTs < f.sel.TimeMin {
		return true
	}
	if f.sel.TimeMax != 0 && m.minTs >= f.sel.TimeMax {
		return true
	}
	if f.hasPrefix {
		if m.maxName < f.prefix {
			return true
		}
		if up := prefixSuccessor(f.prefix); up != "" && m.minName >= up {
			return true
		}
	}
	return false
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix, or "" when no such bound exists.
func prefixSuccessor(prefix string) string {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			return prefix[:i] + string(prefix[i]+1)
		}
	}
	return ""
}

// match applies the exact row-level predicate to a row-file event.
func (f EventsFormat) match(name string, ts int64) bool {
	if f.sel.TimeMin != 0 && ts < f.sel.TimeMin {
		return false
	}
	if f.sel.TimeMax != 0 && ts >= f.sel.TimeMax {
		return false
	}
	if f.sel.NamePattern != "" && !f.pat.MatchesString(name) {
		return false
	}
	return true
}

// readChunk scans one column chunk: prune on the zone map, decode only
// the referenced column streams, filter exactly, emit projected tuples.
// The exact name filter is evaluated once per dictionary entry of each
// surviving chunk; rows look their entry's verdict up by dictionary ID.
// An entry that does not parse as a name never matches.
func (f EventsFormat) readChunk(fs *hdfs.FS, metaFile string, emit func(dataflow.Tuple) error) error {
	m, err := readMeta(fs, metaFile)
	if err != nil {
		return err
	}
	if f.prune(m) {
		tmChunksPruned.Inc()
		return nil
	}
	tmChunksScanned.Inc()
	out := f.outCols()
	need := make(map[string]bool, len(out)+2)
	for _, col := range out {
		need[col] = true
	}
	if f.sel.NamePattern != "" {
		need["name"] = true
	}
	tmin, tmax := f.sel.TimeMin, f.sel.TimeMax
	if tmin != 0 || tmax != 0 {
		need["timestamp"] = true
	}
	var cc chunkColumns
	if err := cc.read(fs, strings.TrimSuffix(metaFile, ".meta"), m, need); err != nil {
		return err
	}
	tmRowsRead.Add(int64(m.rows))
	var keep []bool
	if f.sel.NamePattern != "" {
		keep = make([]bool, len(cc.name.dict))
		for i, name := range cc.name.dict {
			keep[i] = f.pat.MatchesString(name)
		}
	}
	for row := 0; row < m.rows; row++ {
		if keep != nil && !keep[cc.name.ids[row]] {
			continue
		}
		if tmin != 0 && cc.timestamp[row] < tmin || tmax != 0 && cc.timestamp[row] >= tmax {
			continue
		}
		t := make(dataflow.Tuple, len(out))
		for i, col := range out {
			t[i] = cc.value(col, row)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

// readRowFile scans one unsealed row file, applying the same selection
// the chunk path applies, so both split kinds emit identical relations.
func (f EventsFormat) readRowFile(fs *hdfs.FS, s dataflow.Split, emit func(dataflow.Tuple) error) error {
	var idx []int // schema index of each projected column; nil = all
	if f.sel.Columns != nil {
		idx = make([]int, len(f.sel.Columns))
		for i, col := range f.sel.Columns {
			idx[i], _ = dataflow.ClientEventSchema.Index(col) // Pushdown checked every column
		}
	}
	full := dataflow.ClientEventFormat{}
	return full.ReadSplit(fs, s, func(t dataflow.Tuple) error {
		name, _ := t[1].(string)
		ts, _ := t[5].(int64)
		if !f.match(name, ts) {
			return nil
		}
		if idx == nil {
			return emit(t)
		}
		p := make(dataflow.Tuple, len(idx))
		for i, j := range idx {
			p[i] = t[j]
		}
		return emit(p)
	})
}

// LoadDay loads one UTC day of client events through the columnar source
// with the given selection — the columnar counterpart of
// dataflow.Job.LoadClientEventsDay.
func LoadDay(j *dataflow.Job, day time.Time, sel dataflow.Selection) (*dataflow.Dataset, error) {
	return j.LoadDirsSelective(dataflow.HourDirs(j.FS, events.Category, day), EventsFormat{}, sel)
}
