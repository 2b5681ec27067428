package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/scenario"
	"unilog/internal/warehouse"
)

// Topology of the deliver workload: 2 regions, each with 3 Scribe
// daemons feeding 2 aggregators.
const (
	daemonsPerRegion = 3
	aggsPerRegion    = 2
)

// daySpec is the client mix of the committed baseline scenario (poisson,
// gamma cv 2.5 and uniform arrivals, 500 ms clock skew) at a chosen
// session count and seed.
func daySpec(sessions int, seed int64) (*scenario.Spec, error) {
	spec := fmt.Sprintf(`{
  "name": "perfbench",
  "seed": %d,
  "total_sessions": %d,
  "clock_skew_ms": 500,
  "clients": [
    {"id": "steady-web", "rate_fraction": 0.6, "arrival": {"process": "poisson"}},
    {"id": "bursty-mobile", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 2.5}},
    {"id": "api-batch", "rate_fraction": 0.1, "arrival": {"process": "uniform"}, "logged_out_fraction": 0}
  ]
}`, seed, sessions)
	return scenario.Parse([]byte(spec))
}

// dayEvents is one generated day, Thrift-marshalled and routed: every
// event's bytes live in one arena, in stream order, with the region and
// daemon its session is pinned to and its minute of the day.
type dayEvents struct {
	day      time.Time
	sessions int
	arena    []byte
	offs     []int32 // event i is arena[offs[i]:offs[i+1]]
	region   []uint8
	daemon   []uint8
	minute   []int16
}

func (d *dayEvents) n() int           { return len(d.minute) }
func (d *dayEvents) msg(i int) []byte { return d.arena[d.offs[i]:d.offs[i+1]] }

// generateDay builds the day's event stream through the scenario
// harness and marshals it. Routing follows the scenario runner: a hash
// of the session id picks the region (low bits) and the daemon (high
// bits), so a session always enters through one daemon.
func generateDay(sessions int, seed int64) (*dayEvents, error) {
	spec, err := daySpec(sessions, seed)
	if err != nil {
		return nil, err
	}
	stream, err := spec.EventStream()
	if err != nil {
		return nil, err
	}
	d := &dayEvents{day: spec.DayStart(), sessions: sessions, offs: []int32{0}}
	dayMs := d.day.UnixMilli()
	err = stream(func(e *events.ClientEvent) error {
		minute := (e.Timestamp - dayMs) / 60_000
		if minute < 0 {
			minute = 0
		}
		if minute > 23*60+59 {
			minute = 23*60 + 59
		}
		h := fnv.New64a()
		h.Write([]byte(e.SessionID))
		sum := h.Sum64()
		d.arena = append(d.arena, e.Marshal()...)
		d.offs = append(d.offs, int32(len(d.arena)))
		d.region = append(d.region, uint8(sum%2))
		d.daemon = append(d.daemon, uint8((sum>>32)%daemonsPerRegion))
		d.minute = append(d.minute, int16(minute))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// writeDay stores the day straight into warehouse layout with
// warehouse.Writer, bypassing delivery. The writer wants events in
// non-decreasing hour order, so they are bucketed by hour first.
func writeDay(fs *hdfs.FS, d *dayEvents) error {
	byHour := make([][]int, 24)
	dayMs := d.day.UnixMilli()
	var e events.ClientEvent
	for i := 0; i < d.n(); i++ {
		if err := e.Unmarshal(d.msg(i)); err != nil {
			return err
		}
		hr := (e.Timestamp - dayMs) / 3_600_000
		if hr < 0 || hr > 23 {
			return fmt.Errorf("perfbench: event %d outside the day", i)
		}
		byHour[hr] = append(byHour[hr], i)
	}
	w := warehouse.NewWriter(fs, events.Category)
	for _, idx := range byHour {
		for _, i := range idx {
			var e events.ClientEvent
			if err := e.Unmarshal(d.msg(i)); err != nil {
				return err
			}
			if err := w.Append(&e); err != nil {
				return err
			}
		}
	}
	return w.Close()
}

// storedBytes is what the warehouse keeps for the day's client events:
// row files plus column chunks, every file under the category's tree.
func storedBytes(fs *hdfs.FS) (int64, error) {
	return fs.TotalSize(warehouse.CategoryDir(events.Category))
}
