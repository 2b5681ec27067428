package session

import (
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
)

// SequenceFormat decodes materialized session-sequence partitions into
// dataflow tuples — the paper's SessionSequencesLoader (§5.2).
type SequenceFormat struct{}

// SequenceSchema is the schema produced by SequenceFormat: the §4.2
// materialized relation.
var SequenceSchema = dataflow.Schema{"user_id", "session_id", "ip", "sequence", "duration", "start"}

// Schema implements dataflow.InputFormat.
func (SequenceFormat) Schema() dataflow.Schema { return SequenceSchema }

// Splits implements dataflow.InputFormat.
func (SequenceFormat) Splits(fs *hdfs.FS, dir string) ([]dataflow.Split, error) {
	return dataflow.WalkSplits(fs, dir)
}

// ReadSplit implements dataflow.InputFormat.
func (SequenceFormat) ReadSplit(fs *hdfs.FS, s dataflow.Split, emit func(dataflow.Tuple) error) error {
	data, err := fs.ReadFile(s.Path)
	if err != nil {
		return err
	}
	return recordio.ScanGzipFile(data, func(rec []byte) error {
		var r Record
		if err := thrift.DecodeCompact(rec, &r); err != nil {
			return err
		}
		return emit(dataflow.Tuple{r.UserID, r.SessionID, r.IP, r.Sequence, int64(r.Duration), r.Start})
	})
}

// LoadSequencesDay loads one day of materialized session sequences into j.
func LoadSequencesDay(j *dataflow.Job, day time.Time) (*dataflow.Dataset, error) {
	return j.Load(warehouse.SessionDayDir(day), SequenceFormat{})
}
