package session_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"unilog/internal/catalog"
	"unilog/internal/columnar"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/session"
	"unilog/internal/telemetry"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

var colDay = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

const colSamples = 3

// rowDay writes a generated day as row files only, small part files so
// every hour has several.
func rowDay(t *testing.T) *hdfs.FS {
	t.Helper()
	cfg := workload.DefaultConfig(colDay)
	cfg.Users = 60
	cfg.LoggedOutSessions = 20
	evs, _ := workload.New(cfg).Generate()
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	w.RollRecords = 40
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// sealHours seals every hour of the day with chunks of chunkRows events.
func sealHours(t *testing.T, fs *hdfs.FS, chunkRows int) {
	t.Helper()
	for h := 0; h < 24; h++ {
		if _, err := columnar.SealHourChunks(fs, events.Category, colDay.Add(time.Duration(h)*time.Hour), chunkRows); err != nil {
			t.Fatal(err)
		}
	}
}

// layouts are four storings of one day. Every one must give the §4.2
// passes the same input in the same order.
var layouts = []struct {
	name string
	lay  func(t *testing.T, fs *hdfs.FS)
}{
	{"rows-only", func(*testing.T, *hdfs.FS) {}},
	{"sealed", func(t *testing.T, fs *hdfs.FS) {
		if _, err := columnar.SealDay(fs, events.Category, colDay); err != nil {
			t.Fatal(err)
		}
	}},
	{"multi-chunk", func(t *testing.T, fs *hdfs.FS) { sealHours(t, fs, 7) }},
	{"torn-seal", func(t *testing.T, fs *hdfs.FS) {
		// Chunks without the completion marker in every other hour: those
		// hours must read from their row files, the rest from columns.
		sealHours(t, fs, 16)
		for h := 0; h < 24; h += 2 {
			marker := warehouse.HourDir(events.Category, colDay.Add(time.Duration(h)*time.Hour)) + "/_col-SEALED"
			if fs.Exists(marker) {
				if err := fs.Delete(marker, false); err != nil {
					t.Fatal(err)
				}
			}
		}
	}},
}

// dayOutputs is everything the two passes write and return.
type dayOutputs struct {
	files map[string][]byte // dictionary, session parts, catalog
	hist  *session.Histogram
	stats session.DayStats
}

func runPasses(t *testing.T, fs *hdfs.FS) dayOutputs {
	t.Helper()
	_, hist, stats, err := session.BuildDay(fs, colDay, colSamples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.Rebuild(fs, colDay, colSamples); err != nil {
		t.Fatal(err)
	}
	out := dayOutputs{files: make(map[string][]byte), hist: hist, stats: stats}
	for _, dir := range []string{warehouse.DictionaryDir(colDay), warehouse.SessionDayDir(colDay)} {
		infos, err := fs.Walk(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			if out.files[fi.Path], err = fs.ReadFile(fi.Path); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// referencePasses computes the histogram and sessions the way the passes
// did before they read columns: whole events from the row files.
func referencePasses(t *testing.T, fs *hdfs.FS) (*session.Histogram, []session.Record) {
	t.Helper()
	h := session.NewHistogram(colSamples)
	if err := warehouse.ScanDay(fs, events.Category, colDay, func(e *events.ClientEvent) error {
		h.Observe(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dict, err := session.Build(h.Counts)
	if err != nil {
		t.Fatal(err)
	}
	b := session.NewBuilder(dict)
	if err := warehouse.ScanDay(fs, events.Category, colDay, func(e *events.ClientEvent) error {
		b.Add(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return h, recs
}

// TestDailyPassesLayoutEquivalence runs BuildDay and catalog.Rebuild over
// one day stored four ways — row files only, fully sealed, sealed in
// many small chunks, and with torn seals in half the hours — and requires
// byte-identical dictionary, session and catalog files, and equal
// histograms and day stats. The row-only run must also match the
// whole-event reference.
func TestDailyPassesLayoutEquivalence(t *testing.T) {
	var base dayOutputs
	for i, l := range layouts {
		fs := rowDay(t)
		if i == 0 {
			h, recs := referencePasses(t, fs)
			base = runPasses(t, fs)
			if !reflect.DeepEqual(base.hist, h) {
				t.Fatal("rows-only histogram differs from the whole-event reference")
			}
			var got []session.Record
			if err := session.ScanDay(fs, colDay, func(r *session.Record) error {
				got = append(got, *r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, recs) {
				t.Fatalf("rows-only sessions differ from the whole-event reference (%d vs %d)", len(got), len(recs))
			}
			if len(base.files) < 3 {
				t.Fatalf("passes wrote %d files, want dictionary, catalog and session parts", len(base.files))
			}
			continue
		}
		l.lay(t, fs)
		before := telemetry.Snapshot().Series["columnar.rows.read"]
		got := runPasses(t, fs)
		if telemetry.Snapshot().Series["columnar.rows.read"] == before {
			t.Fatalf("%s: the passes read no column chunk", l.name)
		}
		if !reflect.DeepEqual(got.hist, base.hist) {
			t.Errorf("%s: histogram differs from rows-only", l.name)
		}
		if got.stats != base.stats {
			t.Errorf("%s: day stats %+v, rows-only %+v", l.name, got.stats, base.stats)
		}
		if len(got.files) != len(base.files) {
			t.Errorf("%s: wrote %d files, rows-only %d", l.name, len(got.files), len(base.files))
		}
		for path, want := range base.files {
			if string(got.files[path]) != string(want) {
				t.Errorf("%s: %s differs from rows-only", l.name, path)
			}
		}
	}
}

// TestDailyPassesFailOnCorruptColumns flips one byte in a sealed hour's
// name column, and in the details column of a chunk holding a catalog
// sample. Both passes must fail with ErrCorrupt: no panic, and no quiet
// retreat to the hour's row files.
func TestDailyPassesFailOnCorruptColumns(t *testing.T) {
	for _, col := range []string{"name", "details"} {
		t.Run(col, func(t *testing.T) {
			fs := rowDay(t)
			sealHours(t, fs, 16)
			// The day's first event is always a sample, so the first chunk
			// of the first hour with events holds one.
			var path string
			for h := 0; path == "" && h < 24; h++ {
				dir := warehouse.HourDir(events.Category, colDay.Add(time.Duration(h)*time.Hour))
				if columnar.HasColumnar(fs, dir) {
					path = dir + "/_col-00000." + col
				}
			}
			data, err := fs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x20
			if err := fs.Delete(path, false); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(path, data); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := session.BuildDay(fs, colDay, colSamples); !errors.Is(err, recordio.ErrCorrupt) {
				t.Fatalf("BuildDay error = %v, want ErrCorrupt", err)
			}
			if _, err := catalog.Rebuild(fs, colDay, colSamples); !errors.Is(err, recordio.ErrCorrupt) {
				t.Fatalf("catalog.Rebuild error = %v, want ErrCorrupt", err)
			}
		})
	}
}
