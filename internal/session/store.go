package session

import (
	"fmt"
	"time"

	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
)

// Histogram is the output of the first daily pass (§4.2): event counts plus
// a few sample messages per event type, which feed the client event catalog.
type Histogram struct {
	Counts map[string]int64
	// Samples holds up to SampleLimit serialized client events per name.
	Samples map[string][][]byte
	// SampleLimit caps samples retained per event type.
	SampleLimit int
	// Events is the total number of events scanned.
	Events int64
}

// NewHistogram returns an empty histogram retaining sampleLimit samples per
// event type.
func NewHistogram(sampleLimit int) *Histogram {
	return &Histogram{
		Counts:      make(map[string]int64),
		Samples:     make(map[string][][]byte),
		SampleLimit: sampleLimit,
	}
}

// Observe counts one event and retains it as a sample if quota remains.
func (h *Histogram) Observe(e *events.ClientEvent) {
	name := e.Name.String()
	if h.count(name) {
		h.Samples[name] = append(h.Samples[name], e.Marshal())
	}
}

// count counts one event of the named type and reports whether the type's
// sample quota has room for it.
func (h *Histogram) count(name string) bool {
	h.Counts[name]++
	h.Events++
	return h.SampleLimit > 0 && len(h.Samples[name]) < h.SampleLimit
}

// HistogramDay scans one day of client events in the warehouse and returns
// the event histogram — the first pass of the daily session-sequence job.
// The pass reads the name column of sealed hours, and row files for hours
// not sealed yet (columnar.ScanDay). Only the first SampleLimit events of
// each name are assembled whole, so only the chunks holding a sample
// decode their other columns.
func HistogramDay(fs *hdfs.FS, day time.Time, sampleLimit int) (*Histogram, error) {
	h := NewHistogram(sampleLimit)
	err := columnar.ScanDay(fs, events.Category, day, []string{"name"}, func(r *columnar.Row) error {
		if !h.count(r.Name) {
			return nil
		}
		e, err := r.Event()
		if err != nil {
			return err
		}
		h.Samples[r.Name] = append(h.Samples[r.Name], e.Marshal())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// dictionaryFile is where a day's dictionary is persisted.
func dictionaryFile(day time.Time) string {
	return warehouse.DictionaryDir(day) + "/dictionary.gz"
}

// SaveDictionary persists the day's dictionary to its known HDFS location.
func SaveDictionary(fs *hdfs.FS, day time.Time, d *Dictionary) error {
	data, err := d.Marshal()
	if err != nil {
		return err
	}
	return fs.WriteFile(dictionaryFile(day), data)
}

// LoadDictionary reads the day's dictionary back.
func LoadDictionary(fs *hdfs.FS, day time.Time) (*Dictionary, error) {
	data, err := fs.ReadFile(dictionaryFile(day))
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// WriteDay materializes session records into the day's partition,
// /session_sequences/YYYY/MM/DD/part-*.gz.
func WriteDay(fs *hdfs.FS, day time.Time, recs []Record, rollRecords int) error {
	if rollRecords <= 0 {
		rollRecords = 100000
	}
	dir := warehouse.SessionDayDir(day)
	buf := &sliceBuf{}
	w := recordio.NewGzipWriter(buf)
	seq := 0
	inFile := 0
	flush := func() error {
		if inFile == 0 {
			return nil
		}
		if err := w.Close(); err != nil {
			return err
		}
		path := fmt.Sprintf("%s/part-%05d.gz", dir, seq)
		seq++
		if err := fs.WriteFile(path, buf.data); err != nil {
			return err
		}
		buf = &sliceBuf{}
		w = recordio.NewGzipWriter(buf)
		inFile = 0
		return nil
	}
	for i := range recs {
		if err := w.Append(thrift.EncodeCompact(&recs[i])); err != nil {
			return err
		}
		inFile++
		if inFile >= rollRecords {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if seq == 0 {
		// An empty day still gets its directory so readers can distinguish
		// "no sessions" from "not built yet".
		return fs.MkdirAll(dir)
	}
	return nil
}

// ScanDay iterates every materialized session record of the day.
func ScanDay(fs *hdfs.FS, day time.Time, fn func(*Record) error) error {
	infos, err := fs.Walk(warehouse.SessionDayDir(day))
	if err != nil {
		return err
	}
	for _, fi := range infos {
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			return err
		}
		err = recordio.ScanGzipFile(data, func(rec []byte) error {
			var r Record
			if err := thrift.DecodeCompact(rec, &r); err != nil {
				return fmt.Errorf("session: %s: %w", fi.Path, err)
			}
			return fn(&r)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// DayStats summarizes one BuildDay run, including the paper's headline
// compression ratio (§4.2: sequences are "about fifty times smaller than
// the original client event logs").
type DayStats struct {
	Events   int64
	Sessions int64
	Alphabet int
	RawBytes int64 // size of the day's raw client-event logs on HDFS
	SeqBytes int64 // size of the materialized session sequences on HDFS
}

// Ratio returns RawBytes / SeqBytes.
func (s DayStats) Ratio() float64 {
	if s.SeqBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.SeqBytes)
}

// sessionCols are the columns of the session pass: everything Builder
// keeps of an event.
var sessionCols = []string{"name", "user_id", "session_id", "ip", "timestamp"}

// BuildDay runs the full two-pass daily job (§4.2): histogram + dictionary
// construction, then session reconstruction and materialization. The
// dictionary is persisted to its known HDFS location; the records land in
// the day's session-sequence partition. Both passes read the column chunks
// of sealed hours — the histogram the name column (see HistogramDay), the
// session pass the five columns a session keeps — and fall back to the
// row files of hours that are not sealed; the outputs are the same either
// way.
func BuildDay(fs *hdfs.FS, day time.Time, sampleLimit int) (*Dictionary, *Histogram, DayStats, error) {
	var stats DayStats
	// Pass 1: histogram and dictionary.
	h, err := HistogramDay(fs, day, sampleLimit)
	if err != nil {
		return nil, nil, stats, err
	}
	dict, err := Build(h.Counts)
	if err != nil {
		return nil, nil, stats, err
	}
	if err := SaveDictionary(fs, day, dict); err != nil {
		return nil, nil, stats, err
	}
	// Pass 2: reconstruct and materialize sessions.
	b := NewBuilder(dict)
	err = columnar.ScanDay(fs, events.Category, day, sessionCols, func(r *columnar.Row) error {
		b.AddFields(r.UserID, r.SessionID, r.IP, r.Name, r.Timestamp)
		return nil
	})
	if err != nil {
		return nil, nil, stats, err
	}
	recs, err := b.Finish()
	if err != nil {
		return nil, nil, stats, err
	}
	if err := WriteDay(fs, day, recs, 0); err != nil {
		return nil, nil, stats, err
	}

	stats.Events = h.Events
	stats.Sessions = int64(len(recs))
	stats.Alphabet = dict.Len()
	if raw, err := rawDaySize(fs, day); err == nil {
		stats.RawBytes = raw
	}
	if sz, err := fs.TotalSize(warehouse.SessionDayDir(day)); err == nil {
		stats.SeqBytes = sz
	}
	return dict, h, stats, nil
}

// rawDaySize sums the on-disk size of the day's raw client-event logs.
func rawDaySize(fs *hdfs.FS, day time.Time) (int64, error) {
	day = day.UTC().Truncate(24 * time.Hour)
	var total int64
	for hr := 0; hr < 24; hr++ {
		dir := warehouse.HourDir(events.Category, day.Add(time.Duration(hr)*time.Hour))
		if !fs.Exists(dir) {
			continue
		}
		sz, err := warehouse.DataSize(fs, dir)
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}
