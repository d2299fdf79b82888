package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends; a nil tracer records
// nothing, so the untraced driver runs the same code at no cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	names []string
	ids   map[string]int32
	spans []span
	// cur is the innermost open span of the sequential fleet driver
	// (enter/leave); the parallel sweep driver passes parents
	// explicitly (start/finish).
	cur int32
}

// span is one timed call. Parent -1 marks the root; req is the tick,
// control round or grid job the call served (a negative req passed to
// start inherits the parent's).
type span struct {
	name       int32
	parent     int32
	req        int64
	start, end int64 // ns since the tracer's epoch
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]int32{}, cur: -1}
}

func (t *tracer) start(parent int32, name string, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if req < 0 && parent >= 0 {
		req = t.spans[parent].req
	}
	n, ok := t.ids[name]
	if !ok {
		n = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = n
	}
	t.spans = append(t.spans, span{name: n, parent: parent, req: req, start: now, end: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// enter opens a span under the innermost open one; leave closes it.
func (t *tracer) enter(name string, req int64) {
	if t != nil {
		t.cur = t.start(t.cur, name, req)
	}
}

func (t *tracer) leave() {
	if t == nil {
		return
	}
	id := t.cur
	t.cur = t.spans[id].parent
	t.finish(id)
}

// layerStats summarises the spans of one name.
type layerStats struct {
	durs []float64 // seconds, in record order
	self float64   // seconds
}

func (s *layerStats) count() int {
	if s == nil {
		return 0
	}
	return len(s.durs)
}

func (s *layerStats) total() float64 {
	if s == nil {
		return 0
	}
	var sum float64
	for _, d := range s.durs {
		sum += d
	}
	return sum
}

func (s *layerStats) mean() float64 {
	if s.count() == 0 {
		return 0
	}
	return s.total() / float64(s.count())
}

// quantile is the nearest-rank q-quantile of the span durations.
func (s *layerStats) quantile(q float64) float64 {
	if s.count() == 0 {
		return 0
	}
	d := append([]float64(nil), s.durs...)
	sort.Float64s(d)
	i := int(q*float64(len(d))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// selfTimes returns each span's duration minus the part of it that
// its children cover. Children of one parent may overlap (parallel
// sweep workers), so coverage is the union of their intervals.
func (t *tracer) selfTimes() []int64 {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		var covered, reach int64 = 0, s.start
		for _, k := range kids {
			lo, hi := max(t.spans[k].start, reach), min(t.spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// byName groups span durations and self times by span name.
func (t *tracer) byName() map[string]*layerStats {
	self := t.selfTimes()
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		name := t.names[s.name]
		ls := out[name]
		if ls == nil {
			ls = &layerStats{}
			out[name] = ls
		}
		ls.durs = append(ls.durs, float64(s.end-s.start)/1e9)
		ls.self += float64(self[i]) / 1e9
	}
	return out
}

// summary prints, per span name, the call count, total and self time
// and the self time's share of the root span, largest share first: how
// the driver's wall divides among the layers.
func (t *tracer) summary(w io.Writer) {
	ls := t.byName()
	names := make([]string, 0, len(ls))
	for name := range ls {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return ls[names[a]].self > ls[names[b]].self })
	root := float64(t.spans[0].end-t.spans[0].start) / 1e9
	fmt.Fprintf(w, "%-24s %9s %10s %10s %7s\n", "span", "calls", "total_s", "self_s", "self%")
	for _, name := range names {
		s := ls[name]
		fmt.Fprintf(w, "%-24s %9d %10.4f %10.4f %6.2f%%\n", name, len(s.durs), s.total(), s.self, 100*s.self/root)
	}
}

// unattributed is the share of the root span (span 0) that no layer
// span covers.
func (t *tracer) unattributed() float64 {
	root := t.spans[0]
	return float64(t.selfTimes()[0]) / float64(root.end-root.start)
}

// write dumps every span, gzipped, as tab-separated id, parent, name,
// request, start and end (ns since the driver started).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z := gzip.NewWriter(f)
	w := bufio.NewWriter(z)
	fmt.Fprintln(w, "id\tparent\tname\treq\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, t.names[s.name], s.req, s.start, s.end)
	}
	err = w.Flush()
	if err == nil {
		err = z.Close()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
