package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// tiny runs one workload at a tiny scale and returns its result and
// detail record.
func tiny(t *testing.T, workload string, seed int64, trace bool) (*result, map[string]any) {
	t.Helper()
	o := options{
		workload:  workload,
		seed:      seed,
		seconds:   0,
		trace:     trace,
		scale:     0.03,
		setups:    2,
		minIters:  2,
		workdir:   t.TempDir(),
		tracesDir: t.TempDir(),
	}
	res, detail, err := runBench(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d failures=%v",
			workload, res.Correct, res.Attempted, res.Failed, detail["failures"])
	}
	return res, detail
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted: a tiny run of each workload, untraced and
// traced, passes every check and emits exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, _ := tiny(t, wl.Name, 1, trace)
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
					continue
				}
				if got["unit"] != m.Unit {
					t.Errorf("%s trace=%v: %s unit %v, want %s", wl.Name, trace, m.Name, got["unit"], m.Unit)
				}
				if !trace && got["value"].(float64) <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got["value"])
				}
			}
		}
	}
}

// TestLayersLoadedAndBypassed: each traced workload reports nonzero
// figures for the layers it loads, and its measured bypass figures are
// zero: daily writes nothing to the warehouse beyond its outputs, and
// query neither spills nor writes. (A layer a workload never calls reads
// 0 by construction, so it is not checked here.)
func TestLayersLoadedAndBypassed(t *testing.T) {
	cases := map[string]struct{ loaded, bypassed []string }{
		"deliver": {
			loaded: []string{"scribe.log_self_ns", "realtime.tap_ns", "logmover.move_ns", "columnar.seal_ns", "logmover.files_out", "scribe.staging_bytes_per_event", "hdfs.warehouse_bytes_written_per_event"},
		},
		"daily": {
			loaded:   []string{"session.build_day_ns", "catalog.rebuild_ns", "analytics.rollups_ns", "analytics.sessionize_ns", "dataflow.sessionize_spilled_bytes", "dataflow.sessionize_spill_runs", "session.compression_ratio"},
			bypassed: []string{"hdfs.bytes_written_beyond_outputs"},
		},
		"query": {
			loaded:   []string{"analytics.count_raw_ns", "analytics.funnel_raw_ns", "columnar.select_ns", "analytics.count_seq_ns", "analytics.funnel_seq_ns", "analytics.rate_seq_ns", "realtime.pathsum_ns", "realtime.series_ns", "realtime.topk_ns", "birdbrain.lambda_ns", "birdbrain.scatter_ns", "dataflow.bytes_read_per_query.raw", "dataflow.shuffle_records_per_query.raw"},
			bypassed: []string{"dataflow.query_spilled_bytes", "dataflow.query_spill_runs", "hdfs.query_bytes_written"},
		},
	}
	for wl, c := range cases {
		o := options{workload: wl, seed: 2, trace: true, scale: 0.03, setups: 1, minIters: 12,
			workdir: t.TempDir(), tracesDir: t.TempDir()}
		res, _, err := runBench(o)
		if err != nil || !res.Correct {
			t.Fatalf("%s: err=%v correct=%v", wl, err, res != nil && res.Correct)
		}
		for _, name := range c.loaded {
			if v := res.Metrics[name]["value"].(float64); v <= 0 {
				t.Errorf("%s: loaded layer metric %s = %v, want > 0", wl, name, v)
			}
		}
		for _, name := range c.bypassed {
			if v := res.Metrics[name]["value"].(float64); v != 0 {
				t.Errorf("%s: bypass figure %s = %v, want 0", wl, name, v)
			}
		}
	}
}

// deterministic collects what a run must reproduce for one seed: exact
// counts (input size, spill work, query answers) and byte sizes. Byte
// sizes are only nearly exact: events.ClientEvent.Marshal writes the
// Details map in Go's random map order, so gzip sizes of identical
// events drift by a few bytes between runs.
func deterministic(t *testing.T, wl string, seed int64) (exact map[string]any, sizes map[string]float64) {
	t.Helper()
	o := options{workload: wl, seed: seed, trace: true, scale: 0.03, setups: 1, minIters: 2,
		workdir: t.TempDir(), tracesDir: t.TempDir()}
	b, err := newBench(o)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for i := 0; i < o.minIters; i++ {
		if _, err := b.iterate(tr); err != nil {
			t.Fatal(err)
		}
	}
	events, sessions := b.input()
	layers := b.perLayer(tr.summarize())
	exact = map[string]any{"events": events, "sessions": sessions}
	for _, name := range []string{
		"dataflow.sessionize_spilled_bytes", "dataflow.sessionize_spill_runs",
		"dataflow.rollups_spilled_bytes", "dataflow.rollups_shuffle_records",
		"logmover.files_in", "logmover.files_out",
	} {
		exact[name] = layers[name]
	}
	_, _, stored := b.endToEnd()
	sizes = map[string]float64{
		"stored_bytes_per_event":    stored,
		"session.compression_ratio": layers["session.compression_ratio"],
		"logmover.bytes_out":        layers["logmover.bytes_out"],
	}
	if q, ok := b.(*query); ok {
		var answers []string
		for _, c := range q.counts {
			answers = append(answers, c.pattern+":"+jsonString(t, c.want))
		}
		for _, f := range q.funnels {
			answers = append(answers, jsonString(t, f.want))
		}
		for _, r := range q.rates {
			answers = append(answers, jsonString(t, r.want))
		}
		for _, p := range q.pruned {
			answers = append(answers, jsonString(t, p.sel)+jsonString(t, p.want))
		}
		for _, r := range q.rts {
			answers = append(answers, r.path+jsonString(t, r.sum)+jsonString(t, r.top))
		}
		for _, l := range q.rollups {
			answers = append(answers, l.name+jsonString(t, l.want))
		}
		sort.Strings(answers)
		exact["answers"] = answers
	}
	return exact, sizes
}

func jsonString(t *testing.T, v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDeterminism: one seed reproduces its counts and answers exactly
// and its byte sizes to within 0.5%; another seed changes them.
func TestDeterminism(t *testing.T) {
	for _, wl := range []string{"deliver", "daily", "query"} {
		a, aSizes := deterministic(t, wl, 5)
		b, bSizes := deterministic(t, wl, 5)
		c, cSizes := deterministic(t, wl, 6)
		if jsonString(t, a) != jsonString(t, b) {
			t.Errorf("%s: seed 5 twice differs:\n%v\n%v", wl, a, b)
		}
		for name, v := range aSizes {
			if math.Abs(v-bSizes[name]) > 0.005*math.Abs(v) {
				t.Errorf("%s: seed 5 twice: %s %v vs %v", wl, name, v, bSizes[name])
			}
		}
		if jsonString(t, a) == jsonString(t, c) || aSizes["stored_bytes_per_event"] == cSizes["stored_bytes_per_event"] {
			t.Errorf("%s: seeds 5 and 6 agree: %v %v", wl, a, aSizes)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// TestSelfTime: a span's self time excludes its children, and roots
// report the share no child covers.
func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 60, parent: 0},
		{name: "b", start: 20, end: 30, parent: 1},
		{name: "a", start: 70, end: 90, parent: 0},
	}
	s := tr.summarize()
	if got := s.selfPerRun("a"); got != 60 {
		t.Errorf("self(a) = %v, want 60", got)
	}
	if got := s.totalPerRun("a"); got != 70 {
		t.Errorf("total(a) = %v, want 70", got)
	}
	if got := s.countPerRun("a"); got != 2 {
		t.Errorf("count(a) = %v, want 2", got)
	}
	if got := median(s.unattributed); got != 0.3 {
		t.Errorf("unattributed = %v, want 0.3", got)
	}
}
