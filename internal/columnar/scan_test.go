package columnar

import (
	"reflect"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

// TestScanDayMatchesRowScan checks ScanDay against the row scan on a day
// that is all rows, all columns, and half of each: every projection of
// every row equals the row-decoded event's fields, unprojected fields stay
// zero, and Event returns the row-decoded event — in the same order.
func TestScanDayMatchesRowScan(t *testing.T) {
	layouts := map[string]func(fs *hdfs.FS){
		"rows":   func(*hdfs.FS) {},
		"sealed": func(fs *hdfs.FS) { sealTestDay(t, fs, 32) },
		"hybrid": func(fs *hdfs.FS) {
			if _, err := SealHourChunks(fs, events.Category, testDay.Add(time.Hour), 16); err != nil {
				t.Fatal(err)
			}
		},
	}
	projections := [][]string{rowCols, {"name"}, {"user_id", "timestamp"}, {}}
	for name, lay := range layouts {
		fs, total := buildDay(t, 9)
		lay(fs)
		var want []*events.ClientEvent
		if err := warehouse.ScanDay(fs, events.Category, testDay, func(e *events.ClientEvent) error {
			want = append(want, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(want) != total {
			t.Fatalf("%s: row scan saw %d events, want %d", name, len(want), total)
		}
		for _, cols := range projections {
			need := make(map[string]bool)
			for _, c := range cols {
				need[c] = true
			}
			i := 0
			err := ScanDay(fs, events.Category, testDay, cols, func(r *Row) error {
				e := want[i]
				var exp Row
				exp.fromEvent(e, need)
				got := *r
				got.chunk, got.row, got.ev, exp.ev = nil, 0, nil, nil
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("%s %v: row %d = %+v, want %+v", name, cols, i, got, exp)
				}
				ev, err := r.Event()
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(ev, e) {
					t.Fatalf("%s %v: Event of row %d = %+v, want %+v", name, cols, i, ev, e)
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatalf("%s %v: %v", name, cols, err)
			}
			if i != total {
				t.Fatalf("%s %v: scanned %d rows, want %d", name, cols, i, total)
			}
		}
	}
	if err := ScanDay(hdfs.New(0), events.Category, testDay, []string{"details"}, func(*Row) error { return nil }); err == nil {
		t.Fatal("scan of a column Row does not carry succeeded")
	}
}
