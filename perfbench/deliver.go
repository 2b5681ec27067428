package main

import (
	"fmt"
	"runtime"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/logmover"
	"unilog/internal/realtime"
	"unilog/internal/scribe"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

// deliver is the Figure-1 write path: one day of marshalled events fed
// in order to Daemon.Log across 2 regions × 3 daemons × 2 aggregators,
// a realtime.Counter tapping every aggregator, and each hour sealed and
// moved (with columnar sealing on publish) as the manual clock crosses
// it. One iteration delivers the whole day into a fresh topology.
type deliver struct {
	opts options
	day  *dayEvents

	dayWall   []float64 // seconds from the first Log until published, sealed and synced
	publishMs []float64 // per hour close: seal + move wall time
	stored    []float64 // warehouse bytes per event
	led       ledger
	layers    layerCounters
}

const deliverSessions = 4000

func (w *deliver) setup() error {
	d, err := generateDay(scaled(deliverSessions, w.opts.scale), w.opts.seed)
	if err != nil {
		return err
	}
	w.day = d
	return nil
}

func (w *deliver) prepare() error { return nil }

// region is one datacenter of the topology with its staging cluster.
type region struct {
	dc      *scribe.Datacenter
	staging *hdfs.FS
}

func (w *deliver) iterate(tr *tracer) (time.Duration, error) {
	d := w.day
	clock := zk.NewManualClock(d.day)
	wh := hdfs.New(0)
	var regions []region
	var sources []logmover.Source
	for i, name := range []string{"east", "west"} {
		staging := hdfs.New(0)
		dc, err := scribe.NewDatacenter(name, staging, clock, aggsPerRegion, daemonsPerRegion, w.opts.seed+int64(i)*101)
		if err != nil {
			return 0, err
		}
		regions = append(regions, region{dc: dc, staging: staging})
		sources = append(sources, logmover.Source{Datacenter: name, FS: staging})
	}
	mover := logmover.New(wh, sources...)
	mover.SealColumnar = true
	counter := realtime.New(realtime.Config{})
	defer counter.Close()
	tap := counter.TapBatch
	if tr != nil {
		tap = func(batch []scribe.Entry) {
			id := tr.begin("realtime.tap")
			counter.TapBatch(batch)
			tr.end(id)
		}
	}
	for _, r := range regions {
		for _, a := range r.dc.Aggregators {
			a.Tap = tap
		}
	}

	cats := []string{events.Category}
	var moveAllNs int64
	// sealThrough seals hours [from, to) in every region and moves what
	// sealed: the hour close whose wall time is the publish latency.
	sealThrough := func(from, to int) error {
		for h := from; h < to; h++ {
			hour := d.day.Add(time.Duration(h) * time.Hour)
			for _, r := range regions {
				id := tr.begin("scribe.seal_hour")
				err := r.dc.SealHour(cats, hour)
				tr.end(id)
				if err != nil {
					return err
				}
			}
		}
		id := tr.begin("logmover.move_all")
		t0 := time.Now()
		_, err := mover.MoveAllSealed()
		moveAllNs += int64(time.Since(t0))
		tr.end(id)
		return err
	}

	// Start from a collected heap, so garbage left by the previous
	// iteration and its checks is not charged to this one.
	runtime.GC()
	root := tr.begin("deliver.day")
	start := time.Now()
	cur := 0
	for i := 0; i < d.n(); i++ {
		if h := int(d.minute[i]) / 60; h > cur {
			clock.Advance(time.Duration(h-cur) * time.Hour)
			t0 := time.Now()
			if err := sealThrough(cur, h); err != nil {
				return 0, err
			}
			w.publishMs = append(w.publishMs, float64(time.Since(t0))/1e6)
			cur = h
		}
		dm := regions[d.region[i]].dc.Daemons[d.daemon[i]]
		id := tr.begin("scribe.log")
		dm.Log(events.Category, d.msg(i))
		tr.end(id)
	}
	for _, r := range regions {
		id := tr.begin("scribe.flush_all")
		err := r.dc.FlushAll()
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	if err := sealThrough(cur, 24); err != nil {
		return 0, err
	}
	id := tr.begin("realtime.drain")
	counter.Sync()
	tr.end(id)
	wall := time.Since(start)
	tr.end(root)
	w.dayWall = append(w.dayWall, wall.Seconds())

	stored, err := storedBytes(wh)
	if err != nil {
		return 0, err
	}
	n := float64(d.n())
	w.stored = append(w.stored, float64(stored)/n)

	// Checks: every logged event is in the warehouse exactly once, and the
	// counters reconcile exactly with the batch rollups of the day.
	w.led.attempted += int64(d.n())
	var inWarehouse int64
	if err := warehouse.ScanDay(wh, events.Category, d.day, func(*events.ClientEvent) error {
		inWarehouse++
		return nil
	}); err != nil {
		return 0, err
	}
	if inWarehouse != int64(d.n()) {
		w.led.fail(abs64(inWarehouse-int64(d.n())), fmt.Sprintf("exactly-once: logged %d, warehouse %d", d.n(), inWarehouse))
	}
	report, err := realtime.ReconcileWith(wh, d.day, counter)
	if err != nil {
		return 0, err
	}
	if !report.OK() {
		w.led.fail(int64(report.MissingN+report.ExtraN+report.MismatchN), fmt.Sprintf("reconcile: %d missing, %d extra, %d mismatched", report.MissingN, report.ExtraN, report.MismatchN))
	}

	if tr != nil {
		var staged int64
		for _, r := range regions {
			staged += r.staging.Snapshot().BytesWritten
		}
		var moveNs, filesIn, filesOut, bytesOut int64
		for _, a := range mover.Audits() {
			moveNs += int64(a.Finished.Sub(a.Started))
			filesIn += int64(a.FilesIn)
			filesOut += int64(a.FilesOut)
			bytesOut += a.BytesOut
		}
		w.layers.add("scribe.staging_bytes_per_event", float64(staged)/n)
		w.layers.add("realtime.queue_full", float64(counter.Stats().QueueFull))
		w.layers.add("logmover.move_ns", float64(moveNs))
		w.layers.add("columnar.seal_ns", float64(moveAllNs-moveNs))
		w.layers.add("logmover.files_in", float64(filesIn))
		w.layers.add("logmover.files_out", float64(filesOut))
		w.layers.add("logmover.bytes_out", float64(bytesOut))
		w.layers.add("hdfs.warehouse_bytes_written_per_event", float64(wh.Snapshot().BytesWritten)/n)
	}
	return wall, nil
}

func (w *deliver) ledger() *ledger { return &w.led }

func (w *deliver) endToEnd() (opsPerS, opP50Ms, storedPerEvent float64) {
	return float64(w.day.n()) / median(w.dayWall), median(w.publishMs), median(w.stored)
}

func (w *deliver) detail() map[string]any {
	ops, p50, stored := w.endToEnd()
	return map[string]any{
		"deliver_events_per_s":   metric(ops, "1/s"),
		"publish_p50_ms":         metric(p50, "ms"),
		"stored_bytes_per_event": metric(stored, "B"),
		"day_wall_s":             w.dayWall,
		"publish_samples":        len(w.publishMs),
	}
}

func (w *deliver) input() (events, sessions int) { return w.day.n(), w.day.sessions }

func (w *deliver) perLayer(s *traceSummary) map[string]float64 {
	m := w.layers.medians()
	m["scribe.log_self_ns"] = s.selfPerRun("scribe.log")
	m["scribe.seal_hour_ns"] = s.selfPerRun("scribe.seal_hour")
	m["realtime.tap_ns"] = s.totalPerRun("realtime.tap")
	m["realtime.tap_batches"] = s.countPerRun("realtime.tap")
	m["realtime.drain_ns"] = s.totalPerRun("realtime.drain")
	return m
}

func (w *deliver) close() {}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
