package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/birdbrain"
	"unilog/internal/catalog"
	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/session"
	"unilog/internal/warehouse"
)

// daily is the §4.2 daily suite over one sealed day: session
// materialisation, the catalog rebuild, rollups and raw-log
// sessionisation under a 32 KiB memory budget (the spill-heavy
// shuffle), and the BirdBrain summary. One iteration runs the suite.
type daily struct {
	opts options
	day  *dayEvents
	wh   *hdfs.FS

	suiteWall []float64
	// sessionizeWall is the raw sessionisation step of each suite: the
	// spilling shuffle, reported on its own as op_p50_ms.
	sessionizeWall []float64
	stored         float64
	ratio          float64
	led            ledger
	layers         layerCounters
}

const (
	dailySessions = 4000
	// budgetBytes is the dataflow memory budget of the suite's shuffles.
	budgetBytes = 32 << 10
	sampleLimit = 5
	// sessionizePattern is the matcher of the suite's raw sessionisation.
	sessionizePattern = "*:impression"
)

func (w *daily) setup() error {
	d, err := generateDay(scaled(dailySessions, w.opts.scale), w.opts.seed)
	if err != nil {
		return err
	}
	wh := hdfs.New(0)
	if err := writeDay(wh, d); err != nil {
		return err
	}
	if _, err := columnar.SealDay(wh, events.Category, d.day); err != nil {
		return err
	}
	w.day, w.wh = d, wh
	return nil
}

func (w *daily) prepare() error {
	stored, err := storedBytes(w.wh)
	if err != nil {
		return err
	}
	w.stored = float64(stored) / float64(w.day.n())
	return nil
}

// clearOutputs removes what the previous suite wrote, so every
// iteration builds the day's sequences, dictionary and catalog afresh.
func (w *daily) clearOutputs() error {
	for _, dir := range []string{warehouse.SessionDayDir(w.day.day), warehouse.DictionaryDir(w.day.day)} {
		if w.wh.Exists(dir) {
			if err := w.wh.Delete(dir, true); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *daily) iterate(tr *tracer) (time.Duration, error) {
	if err := w.clearOutputs(); err != nil {
		return 0, err
	}
	spill, err := os.MkdirTemp(w.opts.workdir, "spill-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(spill)
	day := w.day.day
	m, err := analytics.MatcherFromPattern(sessionizePattern)
	if err != nil {
		return 0, err
	}
	rollJob := budgetJob("rollups", w.wh, spill)
	sessJob := budgetJob("sessionize", w.wh, spill)
	var (
		stats   session.DayStats
		rollups map[analytics.RollupKey]int64
		rawRep  analytics.CountReport
		summary *birdbrain.Summary
	)
	// Start from a collected heap, so garbage left by the previous
	// iteration and its checks is not charged to this one.
	runtime.GC()
	before := w.wh.Snapshot()
	root := tr.begin("daily.suite")
	start := time.Now()
	err = tr.do("session.build_day", func() (err error) {
		_, _, stats, err = session.BuildDay(w.wh, day, sampleLimit)
		return err
	})
	if err == nil {
		err = tr.do("catalog.rebuild", func() error {
			_, err := catalog.Rebuild(w.wh, day, sampleLimit)
			return err
		})
	}
	if err == nil {
		err = tr.do("analytics.rollups", func() (err error) {
			rollups, err = analytics.Rollups(rollJob, day)
			return err
		})
	}
	var sessionize time.Duration
	if err == nil {
		err = tr.do("analytics.sessionize", func() (err error) {
			t0 := time.Now()
			rawRep, err = analytics.CountRawDay(sessJob, day, m)
			sessionize = time.Since(t0)
			return err
		})
	}
	if err == nil {
		err = tr.do("birdbrain.build", func() (err error) {
			summary, err = birdbrain.Build(w.wh, day, 10)
			return err
		})
	}
	wall := time.Since(start)
	tr.end(root)
	if err != nil {
		return 0, err
	}
	w.suiteWall = append(w.suiteWall, wall.Seconds())
	w.sessionizeWall = append(w.sessionizeWall, sessionize.Seconds())
	w.ratio = stats.Ratio()
	after := w.wh.Snapshot()
	read := after.BytesRead - before.BytesRead
	// The suite's outputs are the session sequences and the dictionary
	// directory (dictionary, histogram, samples, catalog), both cleared
	// before it. Anything else it wrote went through a write path the
	// suite should bypass: rewritten rows or column chunks, or temporary
	// files in the warehouse.
	var outputs int64
	for _, dir := range []string{warehouse.SessionDayDir(day), warehouse.DictionaryDir(day)} {
		size, err := w.wh.TotalSize(dir)
		if err != nil {
			return 0, err
		}
		outputs += size
	}
	beyondOutputs := after.BytesWritten - before.BytesWritten - outputs

	// Checks: the sessions keep every event, every rollup level sums to
	// the day's events, and raw sessionisation answers exactly what the
	// materialised sequences answer.
	n := int64(w.day.n())
	w.led.attempted += 5
	if summary.Events != n || stats.Events != n {
		w.led.fail(1, fmt.Sprintf("build_day: %d events in sessions, %d histogrammed, %d written", summary.Events, stats.Events, n))
	}
	var perLevel [events.NumRollupLevels]int64
	for k, c := range rollups {
		perLevel[k.Level] += c
	}
	for lvl, total := range perLevel {
		if total != n {
			w.led.fail(1, fmt.Sprintf("rollups: level %d sums to %d, want %d", lvl, total, n))
			break
		}
	}
	dict, err := session.LoadDictionary(w.wh, day)
	if err != nil {
		return 0, err
	}
	seqRep, err := analytics.CountSequencesDay(dataflow.NewJob("check", w.wh), day, dict, m)
	if err != nil {
		return 0, err
	}
	if seqRep != rawRep {
		w.led.fail(1, fmt.Sprintf("sessionize: raw %+v, sequences %+v", rawRep, seqRep))
	}

	if tr != nil {
		rs, ss := rollJob.Stats(), sessJob.Stats()
		w.layers.add("dataflow.rollups_shuffle_records", float64(rs.ShuffleRecords))
		w.layers.add("dataflow.rollups_spilled_bytes", float64(rs.SpilledBytes))
		w.layers.add("dataflow.sessionize_spilled_bytes", float64(ss.SpilledBytes))
		w.layers.add("dataflow.sessionize_spill_runs", float64(ss.SpillRuns))
		w.layers.add("dataflow.sessionize_cascade_passes", float64(ss.CascadePasses))
		w.layers.add("dataflow.sessionize_peak_fan_in", float64(ss.PeakRunFanIn))
		w.layers.add("hdfs.warehouse_bytes_read_per_event", float64(read)/float64(n))
		w.layers.add("session.compression_ratio", stats.Ratio())
		w.layers.add("hdfs.bytes_written_beyond_outputs", float64(beyondOutputs))
	}
	return wall, nil
}

// budgetJob is a dataflow job under the suite's memory budget, spilling
// into dir.
func budgetJob(name string, fs *hdfs.FS, dir string) *dataflow.Job {
	j := dataflow.NewJob(name, fs)
	j.MemoryBudget = budgetBytes
	j.SpillDir = dir
	return j
}

func (w *daily) ledger() *ledger { return &w.led }

// endToEnd: events per second of the whole suite, and the median of its
// spilling raw sessionisation step.
func (w *daily) endToEnd() (opsPerS, opP50Ms, storedPerEvent float64) {
	return float64(w.day.n()) / median(w.suiteWall), median(w.sessionizeWall) * 1e3, w.stored
}

func (w *daily) detail() map[string]any {
	ops, p50, stored := w.endToEnd()
	return map[string]any{
		"daily_events_per_s":        metric(ops, "1/s"),
		"suite_p50_ms":              metric(median(w.suiteWall)*1e3, "ms"),
		"sessionize_p50_ms":         metric(p50, "ms"),
		"stored_bytes_per_event":    metric(stored, "B"),
		"session_compression_ratio": metric(w.ratio, "x"),
		"suites_run":                len(w.suiteWall),
	}
}

func (w *daily) input() (events, sessions int) { return w.day.n(), w.day.sessions }

func (w *daily) perLayer(s *traceSummary) map[string]float64 {
	m := w.layers.medians()
	for _, name := range []string{"session.build_day", "catalog.rebuild", "analytics.rollups", "analytics.sessionize", "birdbrain.build"} {
		m[name+"_ns"] = s.totalPerRun(name)
	}
	return m
}

func (w *daily) close() {}
