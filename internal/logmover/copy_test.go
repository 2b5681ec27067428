package logmover

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"reflect"
	"strings"
	"testing"

	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

var mixedNames = []string{
	"web:home:timeline:stream:tweet:impression",
	"iphone:profile:header:bio:link:click",
	"android:discover:trends:list:trend:click",
}

// mixedEvent is the i-th event staged by datacenter dc: every column
// varies, and half the events carry a multi-key details map.
func mixedEvent(dc, i int) *events.ClientEvent {
	e := &events.ClientEvent{
		Initiator: events.Initiator(i % 4),
		Name:      events.MustParseName(mixedNames[i%len(mixedNames)]),
		SessionID: fmt.Sprintf("dc%d-s%03d", dc, i%37),
		IP:        fmt.Sprintf("10.%d.0.%d", dc, i%200),
		Timestamp: t0.UnixMilli() + int64(i)*1000,
	}
	if i%3 != 0 {
		e.UserID = int64(1000 + i%50)
	}
	if i%2 == 0 {
		e.Details = map[string]string{"rank": fmt.Sprint(i % 10), "lang": "en", "request_id": fmt.Sprintf("r%05d", i)}
	}
	return e
}

const (
	mixedPerDC  = 300
	mixedTarget = 5000
)

// stageMixedHour stages one client-events hour on 2 datacenters × 2
// aggregators, alternating events between the aggregators. Every
// aggregator rolls a staging file each 20 records except dc1-agg00, which
// writes the whole hour as one file larger than mixedTarget.
func stageMixedHour(t *testing.T) []Source {
	t.Helper()
	clock := zk.NewManualClock(t0)
	var srcs []Source
	for d, name := range []string{"dc1", "dc2"} {
		dc, err := scribe.NewDatacenter(name, hdfs.New(0), clock, 2, 1, int64(11+d))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range dc.Aggregators {
			a.RollRecords = 20
		}
		if d == 0 {
			dc.Aggregators[0].RollRecords = 1 << 20
		}
		for i := 0; i < mixedPerDC; i++ {
			entry := scribe.Entry{Category: events.Category, Message: mixedEvent(d, i).Marshal()}
			if err := dc.Aggregators[i%2].Append([]scribe.Entry{entry}); err != nil {
				t.Fatal(err)
			}
		}
		if err := dc.SealHour([]string{events.Category}, t0); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, Source{Datacenter: name, FS: dc.Staging})
	}
	return srcs
}

// stagedFile is one staging file as the mover will meet it.
type stagedFile struct {
	data []byte
	recs []string
	raw  int64
}

// stagedInMoverOrder reads every staging file of the hour in the order the
// mover consumes them: source by source, files in path order.
func stagedInMoverOrder(t *testing.T, srcs []Source) []stagedFile {
	t.Helper()
	var out []stagedFile
	for _, src := range srcs {
		infos, err := src.FS.Walk(warehouse.StagingHourDir(events.Category, t0))
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			if path.Base(fi.Path) == warehouse.SealedMarker {
				continue
			}
			data, err := src.FS.ReadFile(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			f := stagedFile{data: data}
			if err := recordio.ScanGzipFile(data, func(r []byte) error {
				f.recs = append(f.recs, string(r))
				f.raw += int64(len(r))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
	}
	return out
}

// assertColumnsMatchRows: the published hour is sealed, and its columnar
// scan yields the row scan's relation — all eight columns, row for row,
// in order.
func assertColumnsMatchRows(t *testing.T, wh *hdfs.FS) []dataflow.Tuple {
	t.Helper()
	dir := warehouse.HourDir(events.Category, t0)
	if !columnar.HasColumnar(wh, dir) {
		t.Fatal("published hour is not sealed")
	}
	scan := func(f dataflow.InputFormat) []dataflow.Tuple {
		d, err := dataflow.NewJob("verify", wh).LoadDirsSelective([]string{dir}, f, dataflow.Selection{})
		if err != nil {
			t.Fatal(err)
		}
		tuples, err := d.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		return tuples
	}
	rows, cols := scan(dataflow.ClientEventFormat{}), scan(columnar.EventsFormat{})
	if len(rows) == 0 || len(cols) != len(rows) {
		t.Fatalf("columnar scan has %d rows, row scan %d", len(cols), len(rows))
	}
	for i := range rows {
		if len(rows[i]) != 8 || !reflect.DeepEqual(cols[i], rows[i]) {
			t.Fatalf("row %d: columnar %v, row scan %v", i, cols[i], rows[i])
		}
	}
	return cols
}

// TestCopyMoveEquivalence: without a Transform the mover copies each
// validated staging file's members verbatim, splits only the file that
// is larger than the target by itself, and seals columns equal to the
// rows it published.
func TestCopyMoveEquivalence(t *testing.T) {
	srcs := stageMixedHour(t)
	staged := stagedInMoverOrder(t, srcs)
	var want []string
	oversize := 0
	for _, f := range staged {
		want = append(want, f.recs...)
		if f.raw > mixedTarget {
			oversize++
		}
	}
	if oversize != 1 || len(staged) < 10 {
		t.Fatalf("staged %d files, %d larger than the target; want many and exactly one", len(staged), oversize)
	}

	wh := hdfs.New(0)
	m := New(wh, srcs...)
	m.TargetFileBytes = mixedTarget
	m.SealColumnar = true
	rec, err := m.MoveHour(events.Category, t0)
	if err != nil {
		t.Fatal(err)
	}
	out := publishedRowFiles(t, wh, events.Category, t0)
	if rec.FilesOut != len(out) || len(out) < 3 {
		t.Fatalf("FilesOut = %d, %d row files published; want several", rec.FilesOut, len(out))
	}

	// The row scan is exactly the staged records in mover order.
	var got []string
	for _, f := range out {
		got = append(got, f.recs...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row scan has %d records, want the %d staged in mover order", len(got), len(want))
	}

	// Map each output onto the staging records it holds; an output made
	// only of whole staging files that fit the target is their byte
	// concatenation.
	type span struct{ start, end int }
	var spans []span
	pos := 0
	for _, f := range staged {
		spans = append(spans, span{pos, pos + len(f.recs)})
		pos += len(f.recs)
	}
	pos, copied, multi := 0, 0, 0
	for i, f := range out {
		start, end := pos, pos+len(f.recs)
		pos = end
		var cat []byte
		inputs, whole := 0, true
		for j, s := range spans {
			if s.end <= start || s.start >= end {
				continue
			}
			if s.start < start || s.end > end || staged[j].raw > mixedTarget {
				whole = false
				break
			}
			cat = append(cat, staged[j].data...)
			inputs++
		}
		if !whole {
			continue
		}
		if !bytes.Equal(f.data, cat) {
			t.Fatalf("output %d holds %d whole staging files but is not their concatenation", i, inputs)
		}
		copied++
		if inputs > 1 {
			multi++
		}
	}
	if copied < 2 || multi < 1 {
		t.Fatalf("%d outputs were verbatim copies (%d of several files); want at least 2 and 1", copied, multi)
	}
	var stagedBytes int64
	for _, f := range staged {
		stagedBytes += int64(len(f.data))
	}
	if rec.BytesIn != stagedBytes {
		t.Fatalf("BytesIn = %d, staged %d", rec.BytesIn, stagedBytes)
	}

	assertColumnsMatchRows(t, wh)
}

// TestTransformMoveEquivalence: with a rewriting and dropping Transform,
// the rows and the columns both hold the transformed records, and
// neither holds a dropped one.
func TestTransformMoveEquivalence(t *testing.T) {
	srcs := stageMixedHour(t)
	staged := stagedInMoverOrder(t, srcs)
	// Policy: drop every fifth session; blank the IP and tag the rest.
	transform := func(e *events.ClientEvent) bool {
		if strings.HasSuffix(e.SessionID, "5") {
			return false
		}
		e.IP = "0.0.0.0"
		if e.Details == nil {
			e.Details = map[string]string{}
		}
		e.Details["policy"] = "v1"
		return true
	}
	var want []string
	dropped := 0
	for _, f := range staged {
		for _, r := range f.recs {
			var e events.ClientEvent
			if err := e.Unmarshal([]byte(r)); err != nil {
				t.Fatal(err)
			}
			if !transform(&e) {
				dropped++
				continue
			}
			want = append(want, string(e.Marshal()))
		}
	}
	if dropped == 0 {
		t.Fatal("transform drops nothing")
	}

	wh := hdfs.New(0)
	m := New(wh, srcs...)
	m.TargetFileBytes = mixedTarget
	m.SealColumnar = true
	m.Transform = func(_ string, rec []byte) ([]byte, error) {
		var e events.ClientEvent
		if err := e.Unmarshal(rec); err != nil {
			return nil, err
		}
		if !transform(&e) {
			return nil, nil
		}
		return e.Marshal(), nil
	}
	rec, err := m.MoveHour(events.Category, t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped != int64(dropped) {
		t.Fatalf("Dropped = %d, want %d", rec.Dropped, dropped)
	}
	if got := warehouseMessages(t, wh, events.Category, t0); !reflect.DeepEqual(got, want) {
		t.Fatalf("row scan has %d records, want the %d transformed", len(got), len(want))
	}
	for i, row := range assertColumnsMatchRows(t, wh) {
		session, ip := row[3].(string), row[4].(string)
		if strings.HasSuffix(session, "5") || ip != "0.0.0.0" {
			t.Fatalf("column row %d holds an untransformed or dropped event: %v", i, row)
		}
	}
}

// TestSealDecodeFailurePublishesRowOnly: a record that frames correctly
// but is not a ClientEvent fails the seal, not the move — the hour is
// published with all its rows and without any column file, and the seal
// error surfaces from both MoveHour and MoveAllSealed.
func TestSealDecodeFailurePublishesRowOnly(t *testing.T) {
	for _, all := range []bool{false, true} {
		clock := zk.NewManualClock(t0)
		dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		// The bad record comes after a full chunk, so the encoder has
		// column files to discard.
		const n = columnar.DefaultChunkRows + 20
		for i := 0; i < n; i++ {
			msg := mixedEvent(0, i).Marshal()
			if i == n-10 {
				msg = []byte{0xff, 0xff, 0xff, 0xff}
			}
			dc.Daemons[0].Log(events.Category, msg)
		}
		if err := dc.SealHour([]string{events.Category}, t0); err != nil {
			t.Fatal(err)
		}
		wh := hdfs.New(0)
		m := New(wh, Source{"dc1", dc.Staging})
		m.SealColumnar = true
		if all {
			recs, err := m.MoveAllSealed()
			if err == nil || errors.Is(err, ErrCorruptFile) || len(recs) != 1 {
				t.Fatalf("MoveAllSealed: %d moved, err = %v; want the hour moved and a seal error", len(recs), err)
			}
		} else if _, err := m.MoveHour(events.Category, t0); err == nil || errors.Is(err, ErrCorruptFile) {
			t.Fatalf("MoveHour err = %v, want a seal error", err)
		}
		dir := warehouse.HourDir(events.Category, t0)
		infos, err := wh.Walk(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			if strings.Contains(fi.Path, "/_col-") {
				t.Fatalf("row-only hour has column file %s", fi.Path)
			}
		}
		if rows := len(warehouseMessages(t, wh, events.Category, t0)); rows != n {
			t.Fatalf("published %d rows, want %d", rows, n)
		}
		if left, _ := dc.Staging.Walk(warehouse.StagingHourDir(events.Category, t0)); len(left) != 0 {
			t.Fatalf("staging not consumed after publish: %d files left", len(left))
		}
	}
}
