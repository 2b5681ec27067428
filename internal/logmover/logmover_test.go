package logmover

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

var t0 = time.Date(2012, 8, 21, 14, 0, 0, 0, time.UTC)

// stageHour writes n messages into a staging cluster through a real
// datacenter pipeline and seals the hour.
func stageHour(t *testing.T, dcName string, n int, seal bool) *scribe.Datacenter {
	t.Helper()
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter(dcName, hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dc.Daemons[0].Log("ce", []byte(fmt.Sprintf("%s-msg-%04d", dcName, i)))
	}
	if seal {
		if err := dc.SealHour([]string{"ce"}, t0); err != nil {
			t.Fatal(err)
		}
	} else if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return dc
}

// publishedFile is one row file of a published hour.
type publishedFile struct {
	data []byte
	recs []string
}

func publishedRowFiles(t *testing.T, wh *hdfs.FS, category string, hour time.Time) []publishedFile {
	t.Helper()
	infos, err := wh.Walk(warehouse.HourDir(category, hour))
	if errors.Is(err, hdfs.ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []publishedFile
	for _, fi := range infos {
		if warehouse.IsAuxiliary(fi.Path) {
			continue
		}
		data, err := wh.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		f := publishedFile{data: data}
		if err := recordio.ScanGzipFile(data, func(r []byte) error {
			f.recs = append(f.recs, string(r))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// warehouseMessages returns the records of a published hour in row-scan
// order.
func warehouseMessages(t *testing.T, wh *hdfs.FS, category string, hour time.Time) []string {
	t.Helper()
	var msgs []string
	for _, f := range publishedRowFiles(t, wh, category, hour) {
		msgs = append(msgs, f.recs...)
	}
	return msgs
}

func TestMoveHourMergesAllDatacenters(t *testing.T) {
	dc1 := stageHour(t, "dc1", 100, true)
	dc2 := stageHour(t, "dc2", 50, true)
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc1.Staging}, Source{"dc2", dc2.Staging})

	rec, err := m.MoveHour("ce", t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 150 || rec.FilesIn != 2 {
		t.Fatalf("audit = %+v", rec)
	}
	msgs := warehouseMessages(t, wh, "ce", t0)
	if len(msgs) != 150 {
		t.Fatalf("warehouse has %d messages, want 150", len(msgs))
	}
	seen := map[string]bool{}
	for _, msg := range msgs {
		if seen[msg] {
			t.Fatalf("duplicate %q", msg)
		}
		seen[msg] = true
	}
	// Staging is consumed after the move.
	for _, dc := range []*scribe.Datacenter{dc1, dc2} {
		infos, err := dc.Staging.Walk(warehouse.StagingHourDir("ce", t0))
		if err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("staging not consumed: %v", infos)
		}
	}
	if len(m.Audits()) != 1 {
		t.Fatalf("audits = %v", m.Audits())
	}
}

// TestAllDatacenterBarrier: the mover must wait until *every* datacenter
// has sealed the hour (§2).
func TestAllDatacenterBarrier(t *testing.T) {
	dc1 := stageHour(t, "dc1", 10, true)
	dc2 := stageHour(t, "dc2", 10, false) // not sealed
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc1.Staging}, Source{"dc2", dc2.Staging})

	if _, err := m.MoveHour("ce", t0); !errors.Is(err, ErrHourIncomplete) {
		t.Fatalf("err = %v, want ErrHourIncomplete", err)
	}
	if wh.Exists(warehouse.HourDir("ce", t0)) {
		t.Fatal("warehouse touched before barrier")
	}
	// dc2 seals; the move proceeds.
	if err := dc2.SealHour([]string{"ce"}, t0); err != nil {
		t.Fatal(err)
	}
	rec, err := m.MoveHour("ce", t0)
	if err != nil || rec.Records != 20 {
		t.Fatalf("after seal: %+v, %v", rec, err)
	}
}

func TestMoveHourIdempotence(t *testing.T) {
	dc := stageHour(t, "dc1", 5, true)
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	if _, err := m.MoveHour("ce", t0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MoveHour("ce", t0); !errors.Is(err, ErrAlreadyMoved) {
		t.Fatalf("second move err = %v", err)
	}
}

func TestSmallFileMerging(t *testing.T) {
	// Many small staging files from several aggregators become few big
	// warehouse files.
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dc.Daemons {
		for j := 0; j < 200; j++ {
			d.Log("ce", []byte(fmt.Sprintf("host%d-%04d", i, j)))
		}
	}
	if err := dc.SealHour([]string{"ce"}, t0); err != nil {
		t.Fatal(err)
	}
	stagedFiles, err := dc.Staging.Walk(warehouse.StagingHourDir("ce", t0))
	if err != nil {
		t.Fatal(err)
	}

	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	m.TargetFileBytes = 1 << 30 // one big output file
	rec, err := m.MoveHour("ce", t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FilesIn < 2 {
		t.Fatalf("expected multiple staging files, got %d (staged %d)", rec.FilesIn, len(stagedFiles))
	}
	if rec.FilesOut != 1 {
		t.Fatalf("FilesOut = %d, want 1 merged file", rec.FilesOut)
	}
	if rec.Records != 1600 {
		t.Fatalf("Records = %d", rec.Records)
	}
}

func TestTargetFileSizeSplitsOutput(t *testing.T) {
	dc := stageHour(t, "dc1", 1000, true)
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	m.TargetFileBytes = 2048 // force several output files
	rec, err := m.MoveHour("ce", t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FilesOut < 3 {
		t.Fatalf("FilesOut = %d, want several", rec.FilesOut)
	}
	if got := warehouseMessages(t, wh, "ce", t0); len(got) != 1000 {
		t.Fatalf("messages = %d", len(got))
	}
}

// gzipBytes gzips raw bytes as one member, with no record framing added.
func gzipBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorruptStagingFileFailsMove: a staging file is copied verbatim only
// after it passes the full check, so each kind of damage fails the move,
// publishes nothing, and keeps every staging file.
func TestCorruptStagingFileFailsMove(t *testing.T) {
	var framed bytes.Buffer
	w := recordio.NewWriter(&framed)
	for _, r := range []string{"first", "second", "third"} {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	good := gzipBytes(t, framed.Bytes())
	flipped := bytes.Clone(good)
	flipped[len(flipped)-8] ^= 0x01 // CRC-32 trailer
	cases := map[string][]byte{
		"not gzip":          []byte("this is not gzip"),
		"trailing garbage":  append(bytes.Clone(good), "trailing garbage"...),
		"truncated member":  good[:len(good)-6],
		"flipped CRC-32":    flipped,
		"torn record frame": gzipBytes(t, framed.Bytes()[:framed.Len()-2]),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			dc := stageHour(t, "dc1", 5, true)
			// Plant the corrupt file beside the good ones.
			dir := warehouse.StagingHourDir("ce", t0)
			if err := dc.Staging.WriteFile(dir+"/dc1-agg99-00000.gz", bad); err != nil {
				t.Fatal(err)
			}
			before, err := dc.Staging.Walk(dir)
			if err != nil {
				t.Fatal(err)
			}
			wh := hdfs.New(0)
			m := New(wh, Source{"dc1", dc.Staging})
			if _, err := m.MoveHour("ce", t0); !errors.Is(err, ErrCorruptFile) {
				t.Fatalf("err = %v, want ErrCorruptFile", err)
			}
			if wh.Exists(warehouse.HourDir("ce", t0)) {
				t.Fatal("warehouse published despite corrupt input")
			}
			after, err := dc.Staging.Walk(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("staging files changed: %d before, %d after", len(before), len(after))
			}
		})
	}
}

func TestMoveAllSealed(t *testing.T) {
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Two categories over two hours.
	for h := 0; h < 2; h++ {
		for i := 0; i < 10; i++ {
			dc.Daemons[0].Log("cat_a", []byte(fmt.Sprintf("a-%d-%d", h, i)))
			dc.Daemons[0].Log("cat_b", []byte(fmt.Sprintf("b-%d-%d", h, i)))
		}
		hour := t0.Add(time.Duration(h) * time.Hour)
		if err := dc.SealHour([]string{"cat_a", "cat_b"}, hour); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	recs, err := m.MoveAllSealed()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("moved %d category-hours, want 4: %+v", len(recs), recs)
	}
	// A second pass finds nothing new.
	recs, err = m.MoveAllSealed()
	if err != nil || len(recs) != 0 {
		t.Fatalf("second pass = %v, %v", recs, err)
	}
}

func TestEmptySealedHour(t *testing.T) {
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.SealHour([]string{"quiet"}, t0); err != nil {
		t.Fatal(err)
	}
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	rec, err := m.MoveHour("quiet", t0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 || rec.FilesOut != 0 {
		t.Fatalf("rec = %+v", rec)
	}
	if !wh.Exists(warehouse.HourDir("quiet", t0)) {
		t.Fatal("empty hour directory not published")
	}
}

func TestParseStagingPath(t *testing.T) {
	cat, hour, ok := parseStagingPath("/staging/client_events/2012/08/21/14/agg0-00001.gz")
	if !ok || cat != "client_events" || !hour.Equal(t0) {
		t.Fatalf("parse = %q %v %v", cat, hour, ok)
	}
	for _, p := range []string{"/logs/x/2012/08/21/14/f", "/staging/short", "/staging/c/2012/08/f"} {
		if _, _, ok := parseStagingPath(p); ok {
			t.Errorf("parseStagingPath(%q) ok", p)
		}
	}
}

// TestSealColumnarOnMove: with SealColumnar set, a published client-events
// hour immediately gains column chunks, and the columnar scan sees exactly
// the rows the row files hold.
func TestSealColumnarOnMove(t *testing.T) {
	clock := zk.NewManualClock(t0)
	dc, err := scribe.NewDatacenter("dc1", hdfs.New(0), clock, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		e := &events.ClientEvent{
			Initiator: events.InitiatorClientUser,
			Name:      events.MustParseName("web:home:timeline:stream:tweet:impression"),
			UserID:    int64(100 + i),
			SessionID: fmt.Sprintf("s%02d", i%5),
			IP:        "10.0.0.1",
			Timestamp: t0.UnixMilli() + int64(i),
		}
		dc.Daemons[0].Log(events.Category, e.Marshal())
	}
	if err := dc.SealHour([]string{events.Category}, t0); err != nil {
		t.Fatal(err)
	}
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	m.SealColumnar = true
	if _, err := m.MoveHour(events.Category, t0); err != nil {
		t.Fatal(err)
	}
	hourDir := warehouse.HourDir(events.Category, t0)
	if !columnar.HasColumnar(wh, hourDir) {
		t.Fatal("published hour has no column chunks")
	}
	j := dataflow.NewJob("verify", wh)
	d, err := j.LoadDirsSelective([]string{hourDir}, columnar.EventsFormat{}, dataflow.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Count()
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("columnar scan saw %d events, want %d", got, n)
	}
}
