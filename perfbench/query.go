package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"unilog/internal/analytics"
	"unilog/internal/birdbrain"
	"unilog/internal/cluster"
	"unilog/internal/columnar"
	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/realtime"
	"unilog/internal/session"
	"unilog/internal/warehouse"
	"unilog/internal/zk"
)

// query is the read side: one smaller sealed day with its session
// sequences built, a realtime.Counter and a 3-node R=2 cluster holding
// the same day, and a single client issuing a seeded, fixed-proportion
// mix of queries. One iteration is a round of the mix: one raw-log
// query, prunedPerRound pruned columnar queries, seqPerRound queries
// over session sequences and ten realtime queries, in a seeded order.
type query struct {
	opts options
	day  *dayEvents
	wh   *hdfs.FS
	dict *session.Dictionary

	counter *realtime.Counter
	cl      *cluster.Cluster
	scatter *birdbrain.Scatter
	lambda  *birdbrain.Lambda

	rng     *rand.Rand
	counts  []countQ
	funnels []funnelQ
	rates   []rateQ
	pruned  []prunedQ
	rts     []rtQ
	rollups []lambdaQ
	round   int

	roundMs   []float64
	roundWall float64
	queries   int64
	classMs   map[string][]float64
	stored    float64
	led       ledger
	work      map[string]*classWork
	failovers int64
	// What the traced rounds made the dataflow spill and the warehouse
	// write: the query path should do neither.
	spilledBytes, spillRuns, bytesWritten int64
}

const (
	querySessions = 1000
	topK          = 10
	// A raw query costs about as much as twenty pruned ones and a dozen
	// sequence ones, so a round of this mix spends comparable wall time
	// on the raw and the pruned class and none dominates queries per
	// second; seq latency is gated on its own (op_p50_ms).
	prunedPerRound = 20
	seqPerRound    = 12 // a multiple of 3: count, funnel and rate alike
)

// Query classes: the latency groups the workload reports.
const (
	classRaw    = "raw"
	classPruned = "pruned"
	classSeq    = "seq"
	classRT     = "rt"
)

// classWork sums what the dataflow layer did for one query class over
// the traced rounds.
type classWork struct {
	queries        int64
	bytesRead      int64
	shuffleRecords int64
}

type countQ struct {
	pattern string
	m       analytics.Matcher
	want    analytics.CountReport
}

type funnelQ struct {
	seq  *analytics.Funnel
	raw  []analytics.Matcher
	want analytics.Report
}

type rateQ struct {
	imp, act analytics.Matcher
	want     analytics.RateReport
}

type prunedQ struct {
	sel  dataflow.Selection
	want int64
}

type rtQ struct {
	path     string // PathSum/Series path; TopK ranks its parent's children
	from, to time.Time
	sum      int64
	top      []realtime.PathCount
}

type lambdaQ struct {
	level events.RollupLevel
	name  string
	want  int64
}

func (w *query) setup() error {
	w.close()
	d, err := generateDay(scaled(querySessions, w.opts.scale), w.opts.seed)
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
	dict, _, _, err := session.BuildDay(wh, d.day, sampleLimit)
	if err != nil {
		return err
	}
	counter := realtime.New(realtime.Config{})
	cl, err := cluster.New(cluster.Config{Nodes: 3, ReplicationFactor: 2, Clock: zk.NewManualClock(d.day)})
	if err != nil {
		counter.Close()
		return err
	}
	b := counter.NewBatcher()
	var e events.ClientEvent
	for i := 0; i < d.n(); i++ {
		if err := e.Unmarshal(d.msg(i)); err != nil {
			counter.Close()
			cl.Close()
			return err
		}
		b.Add(&e)
		cl.Ingest(&e)
	}
	b.Flush()
	counter.Sync()
	cl.Tick()
	cl.Sync()
	w.day, w.wh, w.dict, w.counter, w.cl = d, wh, dict, counter, cl
	w.scatter = birdbrain.NewScatter(cl)
	// The day is sealed: "now" is the next day, so the lambda serves it
	// from the warehouse rollups.
	w.lambda = birdbrain.NewLambda(wh, counter, func() time.Time { return d.day.Add(36 * time.Hour) })
	if !cl.Drained() {
		return fmt.Errorf("perfbench: cluster not drained after ingest: %+v", cl.Stats())
	}
	return nil
}

// prepare draws the query pools from the day's dictionary with the
// workload seed and computes every reference answer the timed queries
// are checked against. Raw and sequence answers must agree here already.
func (w *query) prepare() error {
	w.rng = rand.New(rand.NewSource(w.opts.seed ^ 0x51ed))
	w.classMs = map[string][]float64{}
	w.work = map[string]*classWork{classRaw: {}, classPruned: {}, classSeq: {}}
	stored, err := storedBytes(w.wh)
	if err != nil {
		return err
	}
	w.stored = float64(stored) / float64(w.day.n())
	day := w.day.day
	names := w.dict.Names()
	if len(names) == 0 {
		return fmt.Errorf("perfbench: empty dictionary")
	}
	top := names
	if len(top) > 40 {
		top = top[:40]
	}
	pick := func() events.EventName {
		n, _ := events.ParseName(top[w.rng.Intn(len(top))])
		return n
	}

	// Count patterns: a full name, a head-anchored prefix, a tail-anchored
	// action — each pool entry answered by both paths.
	for i := 0; i < 12; i++ {
		n := pick()
		var p string
		switch i % 3 {
		case 0:
			p = n.String()
		case 1:
			p = n.Client + ":" + n.Page
		default:
			p = "*:" + n.Element + ":" + n.Action
		}
		m, err := analytics.MatcherFromPattern(p)
		if err != nil {
			return err
		}
		seqRep, err := analytics.CountSequencesDay(dataflow.NewJob("ref", w.wh), day, w.dict, m)
		if err != nil {
			return err
		}
		rawRep, err := analytics.CountRawDay(dataflow.NewJob("ref", w.wh), day, m)
		if err != nil {
			return err
		}
		if rawRep != seqRep {
			return fmt.Errorf("perfbench: count %q: raw %+v, sequences %+v", p, rawRep, seqRep)
		}
		w.counts = append(w.counts, countQ{pattern: p, m: m, want: seqRep})
	}

	// Funnels: three stages of frequent names.
	for i := 0; i < 4; i++ {
		var stages []analytics.Matcher
		for s := 0; s < 3; s++ {
			name := pick().String()
			stages = append(stages, func(x string) bool { return x == name })
		}
		f := analytics.NewFunnel(w.dict, stages...)
		seqRep, err := analytics.FunnelSequencesDay(dataflow.NewJob("ref", w.wh), day, f)
		if err != nil {
			return err
		}
		rawRep, err := analytics.FunnelRawDay(dataflow.NewJob("ref", w.wh), day, stages)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(rawRep, seqRep) {
			return fmt.Errorf("perfbench: funnel %d: raw %+v, sequences %+v", i, rawRep, seqRep)
		}
		w.funnels = append(w.funnels, funnelQ{seq: f, raw: stages, want: seqRep})
	}

	// Rates: impressions of one element against clicks on another; the
	// reference counts both from the raw logs.
	for i := 0; i < 4; i++ {
		a, b := pick(), pick()
		imp, err := analytics.MatcherFromPattern("*:" + a.Element + ":" + a.Action)
		if err != nil {
			return err
		}
		act, err := analytics.MatcherFromPattern("*:" + b.Element + ":" + b.Action)
		if err != nil {
			return err
		}
		ri, err := analytics.CountRawDay(dataflow.NewJob("ref", w.wh), day, imp)
		if err != nil {
			return err
		}
		ra, err := analytics.CountRawDay(dataflow.NewJob("ref", w.wh), day, act)
		if err != nil {
			return err
		}
		w.rates = append(w.rates, rateQ{imp: imp, act: act, want: analytics.RateReport{Impressions: ri.Events, Actions: ra.Events}})
	}

	// Pruned selections: a name pattern and a 6-hour window; the
	// reference filters the row files.
	for i := 0; i < 8; i++ {
		n := pick()
		p := n.Client + ":" + n.Page
		if i%2 == 1 {
			p = n.String()
		}
		h := w.rng.Intn(18)
		sel := dataflow.Selection{
			Columns:     []string{"name"},
			NamePattern: p,
			TimeMin:     day.Add(time.Duration(h) * time.Hour).UnixMilli(),
			TimeMax:     day.Add(time.Duration(h+6) * time.Hour).UnixMilli(),
		}
		pat, err := events.ParsePattern(p)
		if err != nil {
			return err
		}
		var want int64
		if err := warehouse.ScanDay(w.wh, events.Category, day, func(e *events.ClientEvent) error {
			if e.Timestamp >= sel.TimeMin && e.Timestamp < sel.TimeMax && pat.Matches(e.Name) {
				want++
			}
			return nil
		}); err != nil {
			return err
		}
		w.pruned = append(w.pruned, prunedQ{sel: sel, want: want})
	}

	// Realtime: hierarchy paths one to three components deep, over the
	// whole day or a 6-hour window; the single counter's answers are the
	// reference the cluster must match.
	for i := 0; i < 16; i++ {
		n := pick()
		parts := strings.Split(n.String(), ":")
		path := strings.Join(parts[:1+i%3], ":")
		from, to := day, day.Add(24*time.Hour)
		if i%2 == 1 {
			h := w.rng.Intn(18)
			from, to = day.Add(time.Duration(h)*time.Hour), day.Add(time.Duration(h+6)*time.Hour)
		}
		if w.counter.PathSum(path, from, to) == 0 {
			// The path has no events in this window; every dictionary
			// name has some in the whole day.
			from, to = day, day.Add(24*time.Hour)
		}
		q := rtQ{path: path, from: from, to: to}
		q.sum = w.counter.PathSum(path, from, to)
		q.top = w.counter.TopK(parentOf(path), topK, from, to)
		if q.sum == 0 {
			return fmt.Errorf("perfbench: realtime path %q is empty", path)
		}
		w.rts = append(w.rts, q)
	}

	// Lambda: rollup totals of frequent names at every level, against the
	// batch rollups of the day.
	batch, err := analytics.Rollups(dataflow.NewJob("ref", w.wh), day)
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		lvl := events.RollupLevel(i % events.NumRollupLevels)
		name := pick().Rollup(lvl).String()
		w.rollups = append(w.rollups, lambdaQ{level: lvl, name: name, want: analytics.RollupTotal(batch, lvl, name)})
	}
	// Warm the lambda's sealed-day cache, as a serving process would be.
	if _, _, err := w.lambda.EventTotal(day, w.rollups[0].level, w.rollups[0].name); err != nil {
		return err
	}
	w.lambda.WaitPrewarm()
	return nil
}

// parentOf is the TopK parent of a path: the path minus its last
// component, or "" for a top-level path.
func parentOf(path string) string {
	if i := strings.LastIndexByte(path, ':'); i >= 0 {
		return path[:i]
	}
	return ""
}

// op is one query of a round: its class and a call that runs it and
// checks the answer against its reference.
type op struct {
	class string
	span  string
	run   func(j *dataflow.Job) (ok bool, err error)
}

// roundOps builds the next round of the mix: one raw query,
// prunedPerRound pruned and seqPerRound sequence queries (count, funnel
// and rate in turn), and ten realtime queries (two each of PathSum,
// Series, TopK and Lambda, one each of Scatter PathSum and TopK), each
// with parameters drawn from its pool, in a seeded order.
func (w *query) roundOps() []op {
	day := w.day.day
	r := w.rng
	var ops []op
	cq := w.counts[r.Intn(len(w.counts))]
	fq := w.funnels[r.Intn(len(w.funnels))]
	// The raw kind changes every second round, so the alternate rounds a
	// traced run records still cover both.
	if (w.round/2)%2 == 0 {
		ops = append(ops, op{classRaw, "analytics.count_raw", func(j *dataflow.Job) (bool, error) {
			got, err := analytics.CountRawDay(j, day, cq.m)
			return got == cq.want, err
		}})
	} else {
		ops = append(ops, op{classRaw, "analytics.funnel_raw", func(j *dataflow.Job) (bool, error) {
			got, err := analytics.FunnelRawDay(j, day, fq.raw)
			return reflect.DeepEqual(got, fq.want), err
		}})
	}
	for i := 0; i < prunedPerRound; i++ {
		pq := w.pruned[r.Intn(len(w.pruned))]
		ops = append(ops, op{classPruned, "columnar.select", func(j *dataflow.Job) (bool, error) {
			d, err := columnar.LoadDay(j, day, pq.sel)
			if err != nil {
				return false, err
			}
			got, err := d.Count()
			return int64(got) == pq.want, err
		}})
	}
	for i := 0; i < seqPerRound; i++ {
		switch i % 3 {
		case 0:
			cq := w.counts[r.Intn(len(w.counts))]
			ops = append(ops, op{classSeq, "analytics.count_seq", func(j *dataflow.Job) (bool, error) {
				got, err := analytics.CountSequencesDay(j, day, w.dict, cq.m)
				return got == cq.want, err
			}})
		case 1:
			fq := w.funnels[r.Intn(len(w.funnels))]
			ops = append(ops, op{classSeq, "analytics.funnel_seq", func(j *dataflow.Job) (bool, error) {
				got, err := analytics.FunnelSequencesDay(j, day, fq.seq)
				return reflect.DeepEqual(got, fq.want), err
			}})
		default:
			rq := w.rates[r.Intn(len(w.rates))]
			ops = append(ops, op{classSeq, "analytics.rate_seq", func(*dataflow.Job) (bool, error) {
				got, err := analytics.RateOverSequences(w.wh, day, w.dict, rq.imp, rq.act)
				return got == rq.want, err
			}})
		}
	}
	rt := func() rtQ { return w.rts[r.Intn(len(w.rts))] }
	for i := 0; i < 2; i++ {
		q1, q2, q3 := rt(), rt(), rt()
		lq := w.rollups[r.Intn(len(w.rollups))]
		ops = append(ops,
			op{classRT, "realtime.pathsum", func(*dataflow.Job) (bool, error) {
				return w.counter.PathSum(q1.path, q1.from, q1.to) == q1.sum, nil
			}},
			op{classRT, "realtime.series", func(*dataflow.Job) (bool, error) {
				var sum int64
				for _, v := range w.counter.Series(q2.path, q2.from, q2.to) {
					sum += v
				}
				return sum == q2.sum, nil
			}},
			op{classRT, "realtime.topk", func(*dataflow.Job) (bool, error) {
				return reflect.DeepEqual(w.counter.TopK(parentOf(q3.path), topK, q3.from, q3.to), q3.top), nil
			}},
			op{classRT, "birdbrain.lambda", func(*dataflow.Job) (bool, error) {
				got, src, err := w.lambda.EventTotal(day, lq.level, lq.name)
				return got == lq.want && src == birdbrain.SourceWarehouse, err
			}})
	}
	q4, q5 := rt(), rt()
	ops = append(ops,
		op{classRT, "birdbrain.scatter", func(*dataflow.Job) (bool, error) {
			got, meta := w.scatter.PathSum(q4.path, q4.from, q4.to)
			w.failovers += int64(meta.Failovers)
			return got == q4.sum && !meta.Partial, nil
		}},
		op{classRT, "birdbrain.scatter", func(*dataflow.Job) (bool, error) {
			got, meta := w.scatter.TopK(parentOf(q5.path), topK, q5.from, q5.to)
			w.failovers += int64(meta.Failovers)
			return reflect.DeepEqual(got, q5.top) && !meta.Partial, nil
		}})
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	w.round++
	return ops
}

func (w *query) iterate(tr *tracer) (time.Duration, error) {
	ops := w.roundOps()
	root := tr.begin("query.round")
	start := time.Now()
	for _, o := range ops {
		j := dataflow.NewJob(o.span, w.wh)
		var before hdfs.Stats
		if tr != nil {
			before = w.wh.Snapshot()
		}
		id := tr.begin(o.span)
		t0 := time.Now()
		ok, err := o.run(j)
		el := time.Since(t0)
		tr.end(id)
		w.led.attempted++
		if err != nil {
			return 0, fmt.Errorf("%s: %w", o.span, err)
		}
		if !ok {
			w.led.fail(1, fmt.Sprintf("%s: answer differs from its reference", o.span))
		}
		if tr == nil {
			w.classMs[o.class] = append(w.classMs[o.class], float64(el)/1e6)
		} else {
			after, js := w.wh.Snapshot(), j.Stats()
			w.spilledBytes += js.SpilledBytes
			w.spillRuns += int64(js.SpillRuns)
			w.bytesWritten += after.BytesWritten - before.BytesWritten
			if cw := w.work[o.class]; cw != nil {
				cw.queries++
				cw.bytesRead += after.BytesRead - before.BytesRead
				cw.shuffleRecords += js.ShuffleRecords
			}
		}
	}
	wall := time.Since(start)
	tr.end(root)
	if tr == nil {
		w.roundMs = append(w.roundMs, float64(wall)/1e6)
		w.roundWall += wall.Seconds()
		w.queries += int64(len(ops))
	}
	return wall, nil
}

func (w *query) ledger() *ledger { return &w.led }

// endToEnd: queries per second over the rounds, and the median latency
// of the seq class, which is too small a share of a round for queries
// per second to show it.
func (w *query) endToEnd() (opsPerS, opP50Ms, storedPerEvent float64) {
	return float64(w.queries) / w.roundWall, median(w.classMs[classSeq]), w.stored
}

func (w *query) detail() map[string]any {
	ms := func(class string, q float64) map[string]any { return metric(quantile(w.classMs[class], q), "ms") }
	us := func(q float64) map[string]any { return metric(quantile(w.classMs[classRT], q)*1e3, "us") }
	ops, _, stored := w.endToEnd()
	return map[string]any{
		"queries_per_s":          metric(ops, "1/s"),
		"round_p50_ms":           metric(median(w.roundMs), "ms"),
		"stored_bytes_per_event": metric(stored, "B"),
		"raw_query_p50_ms":       ms(classRaw, 0.5),
		"raw_query_p90_ms":       ms(classRaw, 0.9),
		"pruned_query_p50_ms":    ms(classPruned, 0.5),
		"pruned_query_p90_ms":    ms(classPruned, 0.9),
		"seq_query_p50_ms":       ms(classSeq, 0.5),
		"seq_query_p90_ms":       ms(classSeq, 0.9),
		"rt_query_p50_us":        us(0.5),
		"rt_query_p99_us":        us(0.99),
		"samples": map[string]int{
			classRaw:    len(w.classMs[classRaw]),
			classPruned: len(w.classMs[classPruned]),
			classSeq:    len(w.classMs[classSeq]),
			classRT:     len(w.classMs[classRT]),
			"rounds":    len(w.roundMs),
		},
	}
}

func (w *query) input() (events, sessions int) { return w.day.n(), w.day.sessions }

func (w *query) perLayer(s *traceSummary) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{
		"analytics.count_raw", "analytics.funnel_raw", "columnar.select",
		"analytics.count_seq", "analytics.funnel_seq", "analytics.rate_seq",
		"realtime.pathsum", "realtime.series", "realtime.topk",
		"birdbrain.lambda", "birdbrain.scatter",
	} {
		m[name+"_ns"] = s.callMedian(name)
	}
	for class, cw := range w.work {
		if cw.queries > 0 {
			m["dataflow.bytes_read_per_query."+class] = float64(cw.bytesRead) / float64(cw.queries)
			m["dataflow.shuffle_records_per_query."+class] = float64(cw.shuffleRecords) / float64(cw.queries)
		}
	}
	m["birdbrain.scatter_failovers"] = float64(w.failovers)
	m["dataflow.query_spilled_bytes"] = float64(w.spilledBytes)
	m["dataflow.query_spill_runs"] = float64(w.spillRuns)
	m["hdfs.query_bytes_written"] = float64(w.bytesWritten)
	return m
}

func (w *query) close() {
	if w.counter != nil {
		w.counter.Close()
		w.counter = nil
	}
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
}
