// Benchmarks regenerating the paper's quantified claims, one per experiment
// row in DESIGN.md §2. Custom metrics carry the paper-facing numbers:
// compression ratios, map-task counts, bytes scanned, and shuffle volumes —
// the quantities the paper's performance argument is made of — alongside
// the usual ns/op.
//
// Run: go test -bench=. -benchmem .
package unilog_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"unilog/internal/align"
	"unilog/internal/analytics"
	"unilog/internal/colloc"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/flowviz"
	"unilog/internal/grammar"
	"unilog/internal/hdfs"
	"unilog/internal/legacy"
	"unilog/internal/ngram"
	"unilog/internal/realtime"
	"unilog/internal/recordio"
	"unilog/internal/scribe"
	"unilog/internal/session"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
	"unilog/internal/zk"
)

// benchCorpus is a lazily-built shared fixture: one generated day in
// warehouse layout with materialized session sequences.
type benchCorpus struct {
	fs    *hdfs.FS
	dict  *session.Dictionary
	truth *workload.Truth
	stats session.DayStats
	evs   []events.ClientEvent
	seqs  []string
}

var (
	corpusOnce sync.Once
	corpus     *benchCorpus
)

func getCorpus(b *testing.B) *benchCorpus {
	b.Helper()
	corpusOnce.Do(func() {
		cfg := workload.DefaultConfig(day)
		cfg.Users = 400
		cfg.LoggedOutSessions = 300
		evs, truth := workload.New(cfg).Generate()
		fs := hdfs.New(0)
		w := warehouse.NewWriter(fs, events.Category)
		w.RollRecords = 4000 // several part files per hour, as the mover would leave
		for i := range evs {
			if err := w.Append(&evs[i]); err != nil {
				panic(err)
			}
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		dict, _, stats, err := session.BuildDay(fs, day, 0)
		if err != nil {
			panic(err)
		}
		var seqs []string
		if err := session.ScanDay(fs, day, func(r *session.Record) error {
			seqs = append(seqs, r.Sequence)
			return nil
		}); err != nil {
			panic(err)
		}
		corpus = &benchCorpus{fs: fs, dict: dict, truth: truth, stats: stats, evs: evs, seqs: seqs}
	})
	return corpus
}

// --- E1: session sequences ≈ 50x smaller than raw client event logs ---

func BenchmarkCompressionRatio(b *testing.B) {
	c := getCorpus(b)
	b.ReportMetric(0, "ns/op") // size experiment; time is incidental
	for i := 0; i < b.N; i++ {
		if c.stats.Ratio() < 2 {
			b.Fatalf("ratio = %.1f", c.stats.Ratio())
		}
	}
	b.ReportMetric(c.stats.Ratio(), "x-smaller")
	b.ReportMetric(float64(c.stats.RawBytes), "raw-bytes")
	b.ReportMetric(float64(c.stats.SeqBytes), "seq-bytes")
}

// BenchmarkSessionSequenceBuild times the two-pass daily materialization
// job itself.
func BenchmarkSessionSequenceBuild(b *testing.B) {
	c := getCorpus(b)
	for i := 0; i < b.N; i++ {
		fs := c.fs
		// Rebuild into a scratch day so each iteration writes fresh output.
		hist, err := session.HistogramDay(fs, day, 0)
		if err != nil {
			b.Fatal(err)
		}
		dict, err := session.Build(hist.Counts)
		if err != nil {
			b.Fatal(err)
		}
		builder := session.NewBuilder(dict)
		err = warehouse.ScanDay(fs, events.Category, day, func(e *events.ClientEvent) error {
			builder.Add(e)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		recs, err := builder.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(recs)) != c.truth.Sessions {
			b.Fatalf("sessions = %d", len(recs))
		}
	}
	b.ReportMetric(float64(c.truth.Events), "events")
}

// --- E2: counting queries — raw scan vs session sequences ---

func countMatcher(b *testing.B) analytics.Matcher {
	m, err := analytics.MatcherFromPattern("*:profile_click")
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkCountRawLogs(b *testing.B) {
	c := getCorpus(b)
	m := countMatcher(b)
	var st dataflow.Stats
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("bench-raw", c.fs)
		rep, err := analytics.CountRawDay(j, day, m)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Events == 0 {
			b.Fatal("no events counted")
		}
		st = j.Stats()
	}
	b.ReportMetric(float64(st.BytesRead), "bytes-scanned")
	b.ReportMetric(float64(st.MapTasks), "map-tasks")
	b.ReportMetric(float64(st.ShuffleBytes), "shuffle-bytes")
	b.ReportMetric(st.ClusterSeconds(), "cluster-s")
}

func BenchmarkCountSessionSequences(b *testing.B) {
	c := getCorpus(b)
	m := countMatcher(b)
	var st dataflow.Stats
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("bench-seq", c.fs)
		rep, err := analytics.CountSequencesDay(j, day, c.dict, m)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Events == 0 {
			b.Fatal("no events counted")
		}
		st = j.Stats()
	}
	b.ReportMetric(float64(st.BytesRead), "bytes-scanned")
	b.ReportMetric(float64(st.MapTasks), "map-tasks")
	b.ReportMetric(float64(st.ShuffleBytes), "shuffle-bytes")
	b.ReportMetric(st.ClusterSeconds(), "cluster-s")
}

// --- E3: session reconstruction — legacy join vs unified vs materialized ---

var (
	legacyOnce sync.Once
	legacyFS   *hdfs.FS
	legacyDirs map[string][]string
)

func getLegacy(b *testing.B) (*hdfs.FS, map[string][]string) {
	c := getCorpus(b)
	legacyOnce.Do(func() {
		legacyFS = hdfs.New(0)
		type sink struct {
			buf *bufWriter
			w   *recordio.GzipWriter
		}
		sinks := map[string]*sink{}
		for i := range c.evs {
			cat, rec := legacy.FromClientEvent(&c.evs[i])
			s := sinks[cat]
			if s == nil {
				bw := &bufWriter{}
				s = &sink{buf: bw, w: recordio.NewGzipWriter(bw)}
				sinks[cat] = s
			}
			if err := s.w.Append(rec); err != nil {
				panic(err)
			}
		}
		legacyDirs = map[string][]string{}
		for cat, s := range sinks {
			if err := s.w.Close(); err != nil {
				panic(err)
			}
			dir := warehouse.HourDir(cat, day)
			if err := legacyFS.WriteFile(dir+"/part-00000.gz", s.buf.data); err != nil {
				panic(err)
			}
			legacyDirs[cat] = []string{dir}
		}
	})
	return legacyFS, legacyDirs
}

type bufWriter struct{ data []byte }

func (w *bufWriter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func BenchmarkSessionReconstructionLegacy(b *testing.B) {
	fs, dirs := getLegacy(b)
	var st dataflow.Stats
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("legacy", fs)
		n, err := legacy.ReconstructSessions(j, dirs, session.InactivityGap)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no sessions")
		}
		st = j.Stats()
	}
	b.ReportMetric(float64(st.ShuffleBytes), "shuffle-bytes")
	b.ReportMetric(float64(st.BytesRead), "bytes-scanned")
}

func BenchmarkSessionReconstructionUnified(b *testing.B) {
	c := getCorpus(b)
	var st dataflow.Stats
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("unified", c.fs)
		d, err := j.LoadClientEventsDay(day)
		if err != nil {
			b.Fatal(err)
		}
		p, err := d.Project("user_id", "session_id", "name", "timestamp")
		if err != nil {
			b.Fatal(err)
		}
		g, err := p.GroupBy("user_id", "session_id")
		if err != nil {
			b.Fatal(err)
		}
		if n, err := g.NumGroups(); err != nil || n == 0 {
			b.Fatalf("no groups: %v", err)
		}
		g.Close()
		st = j.Stats()
	}
	b.ReportMetric(float64(st.ShuffleBytes), "shuffle-bytes")
	b.ReportMetric(float64(st.BytesRead), "bytes-scanned")
}

func BenchmarkSessionReconstructionMaterialized(b *testing.B) {
	c := getCorpus(b)
	var st dataflow.Stats
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("materialized", c.fs)
		d, err := session.LoadSequencesDay(j, day)
		if err != nil {
			b.Fatal(err)
		}
		if n, err := d.Count(); err != nil || n == 0 {
			b.Fatalf("no sessions: %v", err)
		}
		st = j.Stats()
	}
	b.ReportMetric(float64(st.ShuffleBytes), "shuffle-bytes")
	b.ReportMetric(float64(st.BytesRead), "bytes-scanned")
}

// --- E4: map-task reduction ---

func BenchmarkMapTaskReduction(b *testing.B) {
	c := getCorpus(b)
	var rawTasks, seqTasks int
	for i := 0; i < b.N; i++ {
		rawJob := dataflow.NewJob("raw", c.fs)
		rawDS, err := rawJob.LoadClientEventsDay(day)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rawDS.Count(); err != nil {
			b.Fatal(err)
		}
		seqJob := dataflow.NewJob("seq", c.fs)
		seqDS, err := session.LoadSequencesDay(seqJob, day)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := seqDS.Count(); err != nil {
			b.Fatal(err)
		}
		rawTasks, seqTasks = rawJob.Stats().MapTasks, seqJob.Stats().MapTasks
	}
	b.ReportMetric(float64(rawTasks), "raw-map-tasks")
	b.ReportMetric(float64(seqTasks), "seq-map-tasks")
	b.ReportMetric(float64(rawTasks)/float64(seqTasks), "task-reduction-x")
}

// --- E5: the five rollup schemas ---

func BenchmarkRollups(b *testing.B) {
	c := getCorpus(b)
	var n int
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("rollups", c.fs)
		rollups, err := analytics.Rollups(j, day)
		if err != nil {
			b.Fatal(err)
		}
		n = len(rollups)
	}
	b.ReportMetric(float64(n), "metric-rows")
}

// --- E6: funnel analytics — raw vs sequences ---

func funnelStages() []analytics.Matcher {
	stages := make([]analytics.Matcher, 5)
	for i, full := range workload.FunnelStages("web") {
		suffix := full[len("web"):]
		stages[i] = func(name string) bool { return strings.HasSuffix(name, suffix) }
	}
	return stages
}

func BenchmarkFunnelSequences(b *testing.B) {
	c := getCorpus(b)
	f := analytics.NewFunnel(c.dict, funnelStages()...)
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("funnel-seq", c.fs)
		rep, err := analytics.FunnelSequencesDay(j, day, f)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed[0] != c.truth.FunnelStage[0] {
			b.Fatalf("stage0 = %d, truth %d", rep.Completed[0], c.truth.FunnelStage[0])
		}
	}
}

func BenchmarkFunnelRawLogs(b *testing.B) {
	c := getCorpus(b)
	stages := funnelStages()
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("funnel-raw", c.fs)
		rep, err := analytics.FunnelRawDay(j, day, stages)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed[0] != c.truth.FunnelStage[0] {
			b.Fatalf("stage0 = %d, truth %d", rep.Completed[0], c.truth.FunnelStage[0])
		}
	}
}

// --- E7: CTR computation over sequences ---

func BenchmarkCTROverSequences(b *testing.B) {
	c := getCorpus(b)
	imp, err := analytics.MatcherFromRegexp(`:home:who_to_follow:module:user:impression$`)
	if err != nil {
		b.Fatal(err)
	}
	clk, err := analytics.MatcherFromRegexp(`:home:who_to_follow:module:user:click$`)
	if err != nil {
		b.Fatal(err)
	}
	var rate float64
	for i := 0; i < b.N; i++ {
		rep, err := analytics.RateOverSequences(c.fs, day, c.dict, imp, clk)
		if err != nil {
			b.Fatal(err)
		}
		rate = rep.Rate()
	}
	b.ReportMetric(rate, "ctr")
}

// --- E8: n-gram language models ---

func BenchmarkNgramTrain(b *testing.B) {
	c := getCorpus(b)
	for i := 0; i < b.N; i++ {
		m := ngram.NewModel(2)
		m.TrainAll(c.seqs)
		if m.Vocabulary() == 0 {
			b.Fatal("empty model")
		}
	}
	b.ReportMetric(float64(len(c.seqs)), "sessions")
}

func BenchmarkNgramPerplexity(b *testing.B) {
	c := getCorpus(b)
	m := ngram.NewModel(2)
	m.TrainAll(c.seqs)
	b.ResetTimer()
	var p float64
	for i := 0; i < b.N; i++ {
		var err error
		p, err = m.Perplexity(c.seqs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p, "perplexity")
}

// --- E9: collocation extraction ---

func BenchmarkCollocations(b *testing.B) {
	c := getCorpus(b)
	var top []colloc.Pair
	for i := 0; i < b.N; i++ {
		s := colloc.Collect(c.seqs)
		top = s.TopLLR(10, 5)
		if len(top) == 0 {
			b.Fatal("no collocations")
		}
	}
	b.ReportMetric(top[0].Score, "top-llr")
}

// --- E10 / F1: delivery pipeline throughput ---

func BenchmarkScribeDelivery(b *testing.B) {
	clock := zk.NewManualClock(day)
	dc, err := scribe.NewDatacenter("bench", hdfs.New(0), clock, 2, 4, 99)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("web:home:timeline:stream:tweet:impression payload payload payload")
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Daemons[i%len(dc.Daemons)].Log(events.Category, msg)
	}
	b.StopTimer()
	if err := dc.FlushAll(); err != nil {
		b.Fatal(err)
	}
}

// --- E11: Elephant Twin index push-down (see internal/twin benches for the
// selectivity sweep; this is the headline comparison) ---

func BenchmarkTwinComparison(b *testing.B) {
	// Covered in cmd/benchrunner e11 and internal/twin tests; here we keep
	// the full-scan baseline measurable at the root for the harness.
	c := getCorpus(b)
	m := func(name string) bool { return strings.HasSuffix(name, ":signup:flow:step:complete:view") }
	for i := 0; i < b.N; i++ {
		j := dataflow.NewJob("fullscan", c.fs)
		d, err := j.LoadClientEventsDay(day)
		if err != nil {
			b.Fatal(err)
		}
		nameIdx := d.Schema().MustIndex("name")
		n, err := d.Filter(func(tp dataflow.Tuple) bool { return m(tp[nameIdx].(string)) }).Count()
		if err != nil || n == 0 {
			b.Fatalf("no matches: %v", err)
		}
	}
}

// --- E12: dictionary ordering ablation ---

func BenchmarkDictionaryFrequencyOrdered(b *testing.B) {
	c := getCorpus(b)
	benchDictionaryEncoding(b, c, false)
}

func BenchmarkDictionaryShuffled(b *testing.B) {
	c := getCorpus(b)
	benchDictionaryEncoding(b, c, true)
}

// benchDictionaryEncoding measures the UTF-8 size of the day's sequences
// under the real (frequency-ordered) dictionary versus one with shuffled
// assignments — isolating the paper's variable-length-coding trick.
func benchDictionaryEncoding(b *testing.B, c *benchCorpus, shuffled bool) {
	dict := c.dict
	if shuffled {
		// Rebuild with a permuted histogram: same alphabet, arbitrary order.
		names := c.dict.Names()
		rng := rand.New(rand.NewSource(42))
		perm := rng.Perm(len(names))
		h := make(map[string]int64, len(names))
		for i, name := range names {
			h[name] = int64(len(names) - perm[i])
		}
		var err error
		dict, err = session.Build(h)
		if err != nil {
			b.Fatal(err)
		}
	}
	var bytesOut int64
	for i := 0; i < b.N; i++ {
		bytesOut = 0
		for _, seq := range c.seqs {
			names, err := c.dict.Decode(seq)
			if err != nil {
				b.Fatal(err)
			}
			enc, err := dict.Encode(names)
			if err != nil {
				b.Fatal(err)
			}
			bytesOut += int64(len(enc))
		}
	}
	b.ReportMetric(float64(bytesOut), "utf8-bytes")
}

// --- substrate micro-benchmarks: Thrift protocols ---

func benchEvent() *events.ClientEvent {
	return &events.ClientEvent{
		Initiator: events.InitiatorClientUser,
		Name:      events.MustParseName("web:home:mentions:stream:avatar:profile_click"),
		UserID:    1234567,
		SessionID: "ck-00012345",
		IP:        "10.12.34.56",
		Timestamp: day.UnixMilli(),
		Details:   map[string]string{"profile_id": "998877", "rank": "3"},
	}
}

func BenchmarkThriftCompactEncode(b *testing.B) {
	e := benchEvent()
	enc := thrift.NewCompactEncoder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		e.Encode(enc)
	}
	b.SetBytes(int64(enc.Len()))
}

func BenchmarkThriftBinaryEncode(b *testing.B) {
	e := benchEvent()
	enc := thrift.NewBinaryEncoder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		e.Encode(enc)
	}
	b.SetBytes(int64(enc.Len()))
}

func BenchmarkThriftCompactDecode(b *testing.B) {
	data := benchEvent().Marshal()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e events.ClientEvent
		if err := e.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThriftBinaryDecode(b *testing.B) {
	data := thrift.EncodeBinary(benchEvent())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e events.ClientEvent
		if err := thrift.DecodeBinary(data, &e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterUDF isolates the CountClientEvents string scan.
func BenchmarkCounterUDF(b *testing.B) {
	c := getCorpus(b)
	counter := analytics.NewCounter(c.dict, func(n string) bool {
		return strings.HasSuffix(n, ":impression")
	})
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, s := range c.seqs {
			total += counter.Count(s)
		}
	}
	if total == 0 {
		b.Fatal("nothing counted")
	}
	b.ReportMetric(float64(total), "events")
}

// --- E14: realtime streaming counters (§6 real-time direction) ---

// BenchmarkRealtimeIngest measures the streaming hot path: decoded events
// fanned across four counter shards through a Batcher, ns per event
// end-to-end (digest, enqueue, amortized drain).
func BenchmarkRealtimeIngest(b *testing.B) {
	c := getCorpus(b)
	rt := realtime.New(realtime.Config{Shards: 4})
	defer rt.Close()
	batcher := rt.NewBatcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batcher.Add(&c.evs[i%len(c.evs)])
	}
	batcher.Flush()
	rt.Sync()
	b.StopTimer()
	b.ReportMetric(float64(rt.Shards()), "shards")
	if rt.Stats().Observed != int64(b.N) {
		b.Fatalf("observed %d, want %d", rt.Stats().Observed, b.N)
	}
}

// BenchmarkRealtimeWALIngest measures the same hot path with durability
// on: every drained batch is CRC-framed into a per-shard write-ahead log
// (batch fsync cadence) before it is applied. Compare against
// BenchmarkRealtimeIngest for the durability overhead; E15 requires it to
// stay within 2x.
func BenchmarkRealtimeWALIngest(b *testing.B) {
	c := getCorpus(b)
	rt, err := realtime.Open(b.TempDir(), realtime.Config{Shards: 4, SnapshotEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	batcher := rt.NewBatcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batcher.Add(&c.evs[i%len(c.evs)])
	}
	batcher.Flush()
	rt.Sync()
	b.StopTimer()
	st := rt.Stats()
	if st.Observed != int64(b.N) || st.WALErrors != 0 {
		b.Fatalf("observed %d (want %d), wal errors %d", st.Observed, b.N, st.WALErrors)
	}
	b.ReportMetric(float64(st.WALBytes)/float64(b.N), "walB/event")
}

// BenchmarkRealtimeRecover measures crash recovery: a WAL holding the
// corpus is replayed into a fresh counter by realtime.Open.
func BenchmarkRealtimeRecover(b *testing.B) {
	c := getCorpus(b)
	dir := b.TempDir()
	rt, err := realtime.Open(dir, realtime.Config{Shards: 4, SnapshotEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	batcher := rt.NewBatcher()
	for i := range c.evs {
		batcher.Add(&c.evs[i])
	}
	batcher.Flush()
	rt.Sync()
	want := rt.Stats().Observed
	rt.Crash()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := realtime.Open(dir, realtime.Config{Shards: 4, SnapshotEvery: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Stats().Observed != want {
			b.Fatalf("recovered %d events, want %d", rec.Stats().Observed, want)
		}
		rec.Crash()
	}
	b.ReportMetric(float64(len(c.evs)), "events")
}

// BenchmarkRealtimeTapIngest measures the same path from the aggregator
// tap: Thrift decode included, as entries arrive from Scribe daemons.
func BenchmarkRealtimeTapIngest(b *testing.B) {
	c := getCorpus(b)
	const batchSize = 200
	batch := make([]scribe.Entry, batchSize)
	for i := range batch {
		batch[i] = scribe.Entry{Category: events.Category, Message: c.evs[i%len(c.evs)].Marshal()}
	}
	rt := realtime.New(realtime.Config{Shards: 4})
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batchSize {
		rt.TapBatch(batch)
	}
	rt.Sync()
}

// realtimeCorpus returns a counter pre-loaded with the benchmark day.
var (
	rtOnce   sync.Once
	rtLoaded *realtime.Counter
)

func getRealtime(b *testing.B) *realtime.Counter {
	c := getCorpus(b)
	rtOnce.Do(func() {
		rtLoaded = realtime.New(realtime.Config{Shards: 4})
		batcher := rtLoaded.NewBatcher()
		for i := range c.evs {
			batcher.Add(&c.evs[i])
		}
		batcher.Flush()
		rtLoaded.Sync()
	})
	return rtLoaded
}

// BenchmarkRealtimeQueryPoint measures the point-lookup latency BirdBrain
// pays for a "today so far" number, full-day window.
func BenchmarkRealtimeQueryPoint(b *testing.B) {
	rt := getRealtime(b)
	end := day.Add(24 * time.Hour)
	var n int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n = rt.PathSum("web", day, end)
	}
	if n == 0 {
		b.Fatal("nothing counted")
	}
	b.ReportMetric(float64(n), "events")
}

// BenchmarkRealtimeQueryTopK measures the prefix drill-down (top pages of
// the web client) over the full day.
func BenchmarkRealtimeQueryTopK(b *testing.B) {
	rt := getRealtime(b)
	end := day.Add(24 * time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if top := rt.TopK("web", 5, day, end); len(top) == 0 {
			b.Fatal("no children")
		}
	}
}

// BenchmarkRealtimeReconcile runs the full lambda check: batch rollups
// plus a streaming replay of the day, diffed to exact agreement.
func BenchmarkRealtimeReconcile(b *testing.B) {
	c := getCorpus(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := realtime.Reconcile(c.fs, day, realtime.Config{Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("diverged: %s", rep)
		}
	}
}

// --- §6 ongoing-work extensions ---

// BenchmarkQueryByExample measures behavioral similarity search over the
// whole day's sessions (§6 sequence-alignment direction).
func BenchmarkQueryByExample(b *testing.B) {
	c := getCorpus(b)
	// The longest session is the exemplar.
	qi := 0
	for i := range c.seqs {
		if len(c.seqs[i]) > len(c.seqs[qi]) {
			qi = i
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := align.QueryByExample(c.seqs[qi], c.seqs, align.DefaultScoring, 10)
		if len(res) == 0 {
			b.Fatal("no similar sessions")
		}
	}
	b.ReportMetric(float64(len(c.seqs)), "sessions")
}

// BenchmarkGrammarInduction measures Re-Pair over the day's sessions (§6
// grammar-induction direction), reporting the structural compression the
// grammar achieves.
func BenchmarkGrammarInduction(b *testing.B) {
	c := getCorpus(b)
	// Re-Pair rescans the corpus per rule; bench a 300-session slice so the
	// harness stays fast (the full-corpus run is in examples/explore).
	seqs := c.seqs
	if len(seqs) > 300 {
		seqs = seqs[:300]
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		g := grammar.Induce(seqs, 2)
		if len(g.Rules) == 0 {
			b.Fatal("no rules")
		}
		ratio = g.CompressionRatio()
	}
	b.ReportMetric(ratio, "grammar-compression-x")
}

// BenchmarkFlowTree measures LifeFlow-style prefix aggregation (§6
// visualization direction).
func BenchmarkFlowTree(b *testing.B) {
	c := getCorpus(b)
	for i := 0; i < b.N; i++ {
		tree := flowviz.Build(c.seqs, 5)
		if tree.Sessions != len(c.seqs) {
			b.Fatal("tree lost sessions")
		}
	}
}
