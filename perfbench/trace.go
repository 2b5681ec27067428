package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced call into a layer: its name, its interval in
// nanoseconds since the tracer's epoch, the span that was open when it
// began (-1 for none) and the iteration ("run") it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	run        int32
}

// tracer is the benchmark's in-memory span recorder. Spans are recorded
// from the benchmark's own code around each call into a layer; the
// client is a single goroutine, so the open spans form a stack and a
// span's parent is the innermost span open when it began. A nil *tracer
// records nothing, which is how untraced iterations run.
type tracer struct {
	epoch time.Time
	run   int32
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, run: t.run})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// do wraps fn in a span.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// nameStats aggregates the spans of one name: total and self time per
// run, and every individual duration.
type nameStats struct {
	durs    []float64
	perRun  map[int32]float64 // total duration per run
	selfRun map[int32]float64 // self time per run
}

// traceSummary is the tracer's spans folded per name, plus the
// unattributed share of every root span (the time no child covers).
type traceSummary struct {
	byName       map[string]*nameStats
	unattributed []float64
	runs         int
}

// summarize folds the recorded spans. A span's self time is its
// duration minus the durations of its children; children of one span
// never overlap because a single goroutine records them.
func (t *tracer) summarize() *traceSummary {
	s := &traceSummary{byName: map[string]*nameStats{}}
	if t == nil {
		return s
	}
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	runs := map[int32]bool{}
	for i, sp := range t.spans {
		runs[sp.run] = true
		ns := s.byName[sp.name]
		if ns == nil {
			ns = &nameStats{perRun: map[int32]float64{}, selfRun: map[int32]float64{}}
			s.byName[sp.name] = ns
		}
		d := float64(sp.end - sp.start)
		ns.durs = append(ns.durs, d)
		ns.perRun[sp.run] += d
		ns.selfRun[sp.run] += d - float64(child[i])
		if sp.parent < 0 && d > 0 {
			s.unattributed = append(s.unattributed, (d-float64(child[i]))/d)
		}
	}
	s.runs = len(runs)
	return s
}

// totalPerRun is the median over runs of a name's summed duration per
// run; runs without the span count as zero.
func (s *traceSummary) totalPerRun(name string) float64 { return s.perRunMedian(name, false) }

// selfPerRun is totalPerRun for self time.
func (s *traceSummary) selfPerRun(name string) float64 { return s.perRunMedian(name, true) }

func (s *traceSummary) perRunMedian(name string, self bool) float64 {
	ns := s.byName[name]
	if ns == nil || s.runs == 0 {
		return 0
	}
	m := ns.perRun
	if self {
		m = ns.selfRun
	}
	vals := make([]float64, 0, s.runs)
	for _, v := range m {
		vals = append(vals, v)
	}
	for len(vals) < s.runs {
		vals = append(vals, 0)
	}
	return median(vals)
}

// countPerRun is the mean number of spans of a name per run.
func (s *traceSummary) countPerRun(name string) float64 {
	ns := s.byName[name]
	if ns == nil || s.runs == 0 {
		return 0
	}
	return float64(len(ns.durs)) / float64(s.runs)
}

// callMedian is the median duration of one span name across all calls.
func (s *traceSummary) callMedian(name string) float64 {
	ns := s.byName[name]
	if ns == nil {
		return 0
	}
	return median(ns.durs)
}

// write stores every span as a gzipped TSV under dir, one line per span
// (run, id, parent, name, start_ns, end_ns) after a header comment that
// records the host and the input.
func (t *tracer) write(dir, file string, header string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "# %s\n", header)
	fmt.Fprintln(w, "run\tid\tparent\tname\tstart_ns\tend_ns")
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", sp.run, i, sp.parent, sp.name, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
