// Command perfbench is the repository's end-to-end benchmark. It drives
// the logging pipeline from outside, through the public functions of its
// packages, on one of three workloads:
//
//   - deliver: one day through Scribe, staging, the log mover and the
//     columnar seal, with the realtime counters tapping the aggregators;
//   - daily: the daily batch suite over a sealed day (sessions, catalog,
//     rollups and raw sessionisation under a 32 KiB budget, BirdBrain);
//   - query: a single client issuing a fixed mix of raw-log, pruned
//     columnar, session-sequence and realtime queries.
//
// Every run checks the answers it gets. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// alternates untraced and traced iterations and reports per-layer
// metrics from the spans it recorded around each call into a layer. See
// README.md for how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     float64
	setups    int
	minIters  int
	workdir   string
	tracesDir string
}

// bench is one workload. setup builds the program state from the seed
// and is timed (it runs several times; the last state is kept); prepare
// computes reference answers untimed; iterate runs one unit of measured
// work, recording spans into tr when it is non-nil, and returns the wall
// time of its timed part (checks excluded).
type bench interface {
	setup() error
	prepare() error
	iterate(tr *tracer) (time.Duration, error)
	ledger() *ledger
	endToEnd() (opsPerS, opP50Ms, storedPerEvent float64)
	detail() map[string]any
	input() (events, sessions int)
	perLayer(s *traceSummary) map[string]float64
	close()
}

// ledger counts operations attempted and failed — failed meaning the
// call returned an error or its answer failed a check.
type ledger struct {
	attempted int64
	failed    int64
	notes     []string
}

func (l *ledger) fail(n int64, note string) {
	if n < 1 {
		n = 1
	}
	l.failed += n
	if len(l.notes) < 20 {
		l.notes = append(l.notes, note)
	}
}

// layerCounters collects per-layer values, one per traced iteration.
type layerCounters map[string][]float64

func (c *layerCounters) add(name string, v float64) {
	if *c == nil {
		*c = layerCounters{}
	}
	(*c)[name] = append((*c)[name], v)
}

// medians reduces every counter to its median over the iterations.
func (c layerCounters) medians() map[string]float64 {
	m := map[string]float64{}
	for name, vs := range c {
		m[name] = median(vs)
	}
	return m
}

func metric(v float64, unit string) map[string]any {
	return map[string]any{"value": v, "unit": unit}
}

// scaled is a session count at a size scale, at least 10 sessions.
func scaled(sessions int, scale float64) int {
	n := int(float64(sessions)*scale + 0.5)
	if n < 10 {
		n = 10
	}
	return n
}

func newBench(o options) (bench, error) {
	switch o.workload {
	case "deliver":
		return &deliver{opts: o}, nil
	case "daily":
		return &daily{opts: o}, nil
	case "query":
		return &query{opts: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want deliver, daily or query)", o.workload)
}

// endToEndNames and perLayerNames are the metrics a run reports, in the
// order BENCHMARK.json lists them.
var endToEndNames = []string{"setup_s", "peak_rss_mb", "ops_per_s", "op_p50_ms", "stored_bytes_per_event"}

var perLayerNames = []string{
	// deliver
	"scribe.log_self_ns", "scribe.staging_bytes_per_event", "scribe.seal_hour_ns",
	"realtime.tap_ns", "realtime.tap_batches", "realtime.drain_ns", "realtime.queue_full",
	"logmover.move_ns", "columnar.seal_ns",
	"logmover.files_in", "logmover.files_out", "logmover.bytes_out",
	"hdfs.warehouse_bytes_written_per_event",
	// daily
	"session.build_day_ns", "catalog.rebuild_ns", "analytics.rollups_ns", "analytics.sessionize_ns", "birdbrain.build_ns",
	"dataflow.rollups_shuffle_records", "dataflow.rollups_spilled_bytes",
	"dataflow.sessionize_spilled_bytes", "dataflow.sessionize_spill_runs",
	"dataflow.sessionize_cascade_passes", "dataflow.sessionize_peak_fan_in",
	"hdfs.warehouse_bytes_read_per_event", "session.compression_ratio",
	// query
	"analytics.count_raw_ns", "analytics.funnel_raw_ns", "columnar.select_ns",
	"analytics.count_seq_ns", "analytics.funnel_seq_ns", "analytics.rate_seq_ns",
	"realtime.pathsum_ns", "realtime.series_ns", "realtime.topk_ns",
	"birdbrain.lambda_ns", "birdbrain.scatter_ns",
	"dataflow.bytes_read_per_query.raw", "dataflow.bytes_read_per_query.pruned", "dataflow.bytes_read_per_query.seq",
	"dataflow.shuffle_records_per_query.raw", "dataflow.shuffle_records_per_query.pruned", "dataflow.shuffle_records_per_query.seq",
	"birdbrain.scatter_failovers",
	// bypass checks: work a workload should not do, measured
	"hdfs.bytes_written_beyond_outputs", "dataflow.query_spilled_bytes", "dataflow.query_spill_runs", "hdfs.query_bytes_written",
	// every workload
	"trace.unattributed_share", "trace.overhead_ratio",
}

// units of the reported metrics, by name suffix or full name.
func unitOf(name string) string {
	switch name {
	case "setup_s":
		return "s"
	case "peak_rss_mb":
		return "MB"
	case "ops_per_s":
		return "1/s"
	case "op_p50_ms":
		return "ms"
	case "session.compression_ratio", "trace.overhead_ratio":
		return "ratio"
	case "trace.unattributed_share":
		return "share"
	}
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.Contains(name, "bytes"):
		return "B"
	}
	return "count"
}

// result is the last line of output.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// runBench sets the workload up, measures it for the requested time and
// returns the result line plus a detail record (host, input, the
// workload's own named metrics, sample counts and check notes).
func runBench(o options) (*result, map[string]any, error) {
	b, err := newBench(o)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()

	var setups []float64
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := b.prepare(); err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	rssScope := "process"
	if resetPeakRSS() {
		rssScope = "iterations"
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var untracedWall, tracedWall []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var runErr error
	for i := 0; i < o.minIters || time.Now().Before(deadline); i++ {
		// A traced run alternates untraced and traced iterations, so the
		// tracing overhead is measured on the same input and host state.
		var it *tracer
		if tr != nil && i%2 == 1 {
			it = tr
			tr.run = int32(i)
		}
		wall, err := b.iterate(it)
		if err != nil {
			runErr = err
			b.ledger().fail(1, err.Error())
			break
		}
		if it != nil {
			tracedWall = append(tracedWall, wall.Seconds())
		} else {
			untracedWall = append(untracedWall, wall.Seconds())
		}
	}
	if o.trace && len(tracedWall) == 0 && runErr == nil {
		// Too short a run to alternate: trace one more iteration.
		tr.run = 1
		wall, err := b.iterate(tr)
		if err != nil {
			runErr = err
			b.ledger().fail(1, err.Error())
		}
		tracedWall = append(tracedWall, wall.Seconds())
	}

	led := b.ledger()
	res := &result{
		Correct:   runErr == nil && led.failed == 0,
		Attempted: led.attempted,
		Failed:    led.failed,
		Metrics:   map[string]map[string]any{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	nEvents, nSessions := b.input()
	detail := map[string]any{
		"workload": o.workload,
		"trace":    o.trace,
		"host": map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"go_version": runtime.Version(),
		},
		"input": map[string]any{
			"seed":     o.seed,
			"events":   nEvents,
			"sessions": nSessions,
			"scale":    o.scale,
		},
		"failed_ratio":   float64(led.failed) / float64(res.Attempted),
		"setup_runs":     setups,
		"peak_rss_scope": rssScope,
	}
	if len(led.notes) > 0 {
		detail["failures"] = led.notes
	}
	if runErr != nil {
		detail["error"] = runErr.Error()
	}

	if !o.trace {
		ops, p50, stored := b.endToEnd()
		values := map[string]float64{
			"setup_s":                median(setups),
			"peak_rss_mb":            peakRSSMB(),
			"ops_per_s":              ops,
			"op_p50_ms":              p50,
			"stored_bytes_per_event": stored,
		}
		for _, name := range endToEndNames {
			res.Metrics[name] = metric(values[name], unitOf(name))
		}
		detail["workload_metrics"] = b.detail()
		return res, detail, runErr
	}

	sum := tr.summarize()
	layers := b.perLayer(sum)
	layers["trace.unattributed_share"] = median(sum.unattributed)
	if len(untracedWall) > 0 {
		layers["trace.overhead_ratio"] = median(tracedWall) / median(untracedWall)
	}
	for _, name := range perLayerNames {
		res.Metrics[name] = metric(layers[name], unitOf(name))
	}
	host, _ := json.Marshal(detail["host"])
	input, _ := json.Marshal(detail["input"])
	path, err := tr.write(o.tracesDir, fmt.Sprintf("%s-seed%d.tsv.gz", o.workload, o.seed),
		fmt.Sprintf("workload=%s host=%s input=%s", o.workload, host, input))
	if err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	detail["trace_file"] = path
	detail["traced_iterations"] = len(tracedWall)
	detail["untraced_iterations"] = len(untracedWall)
	return res, detail, runErr
}

// resetPeakRSS collects garbage, hands the freed memory back to the OS
// and restarts the kernel's peak-RSS count, so peak_rss_mb covers the
// measured iterations rather than the input generation of set-up. It
// reports whether the count was restarted.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the peak resident set size in MiB: VmHWM from
// /proc/self/status (since the last reset), or else the whole process's
// peak from getrusage.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: deliver, daily or query")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 to report per-layer metrics from a traced run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for spill files")
	flag.StringVar(&o.tracesDir, "traces", ".bench_build/traces", "directory traced runs write their spans to")
	flag.Parse()
	o.trace = trace != 0
	o.scale = 1
	// Set-up runs several times so setup_s is a median: five times, or
	// seven for query, whose set-up is short and varies most. A query run
	// makes at least 100 rounds: 100 samples of the raw class and more of
	// the others, 1000 realtime ones, ten beyond each reported percentile.
	o.setups, o.minIters = 5, 1
	if o.workload == "query" {
		o.setups, o.minIters = 7, 100
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	res, detail, err := runBench(o)
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	printJSON(detail)
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printJSON writes v as one line of JSON with sorted keys.
func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(data))
}
