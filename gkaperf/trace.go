package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the program's public functions. All spans of one op
// carry its op id; Parent is the id of the span that caused this one (the
// op's root span when the caller is not itself inside a span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootName names an op's root span. The root keeps the op time no layer
// span covers, so its attributed time is the residue.
const rootName = "bench.residue"

// keepOps bounds how many traced ops keep their spans for the spans file;
// the aggregates cover every traced op.
const keepOps = 8

// opTrace collects the spans of one op while it runs.
type opTrace struct {
	id    int64
	sids  []string
	spans []span
}

// tracer records spans in memory. A nil *tracer is the untraced mode:
// every method is a no-op, so call sites need no guard.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu      sync.Mutex
	bySID   map[string]*opTrace
	dropped int
	ops     int
	wall    int64
	self    map[string]int64
	incl    map[string]int64
	durs    map[string][]float64
	kept    []span
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		bySID: map[string]*opTrace{},
		self:  map[string]int64{},
		incl:  map[string]int64{},
		durs:  map[string][]float64{},
	}
}

// now is the time since the tracer's epoch, or 0 when untraced.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID allocates a span id ahead of time, for spans whose children end
// before they do.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// open starts an op and binds its session ids, so spans recorded from
// callbacks that only see a packet can find their op.
func (t *tracer) open(sids ...string) *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{id: t.newID()}
	t.bind(o, sids...)
	return o
}

// bind adds session ids to a running op (a later stage of the op).
func (t *tracer) bind(o *opTrace, sids ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, sid := range sids {
		t.bySID[sid] = o
	}
	o.sids = append(o.sids, sids...)
	t.mu.Unlock()
}

// add records a span of op o that started at start and ends now. id may
// be 0 to allocate one; parent 0 means the op's root.
func (t *tracer) add(o *opTrace, name string, id, parent, start int64) {
	t.put(o, name, id, parent, start, t.now())
}

// put records a span of op o with an explicit end.
func (t *tracer) put(o *opTrace, name string, id, parent, start, end int64) {
	if t == nil || o == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	if parent == 0 {
		parent = o.id
	}
	t.mu.Lock()
	o.spans = append(o.spans, span{ID: id, Parent: parent, Op: o.id, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// addSID records a span for the op bound to sid; spans of unknown or
// already closed sessions are counted as dropped.
func (t *tracer) addSID(sid, name string, id, parent, start int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	o := t.bySID[sid]
	if o == nil {
		t.dropped++
	}
	t.mu.Unlock()
	if o != nil {
		t.add(o, name, id, parent, start)
	}
}

// close ends op o now, unbinds its session ids and folds its spans
// into the aggregates.
func (t *tracer) close(o *opTrace, start int64) {
	if t == nil || o == nil {
		return
	}
	root := span{ID: o.id, Op: o.id, Name: rootName, Start: start, End: t.now()}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sid := range o.sids {
		if t.bySID[sid] == o {
			delete(t.bySID, sid)
		}
	}
	self, incl := attribute(o.spans, root)
	for name, d := range self {
		t.self[name] += d
	}
	for name, d := range incl {
		t.incl[name] += d
	}
	for _, s := range o.spans {
		t.durs[s.Name] = append(t.durs[s.Name], float64(s.End-s.Start)/1e3)
	}
	t.wall += root.End - root.Start
	t.ops++
	if t.ops <= keepOps {
		t.kept = append(t.kept, root)
		t.kept = append(t.kept, o.spans...)
	}
}

// share is the part of all traced op wall time attributed to a span
// name's self time.
func (t *tracer) share(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(float64(t.self[name]), float64(t.wall))
}

// selfPerOpUS is a span name's mean self time per traced op, in µs.
func (t *tracer) selfPerOpUS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(float64(t.self[name])/1e3, float64(t.ops))
}

// inclShare is the part of all traced op wall time spent inside spans of
// a name, their callees included.
func (t *tracer) inclShare(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(float64(t.incl[name]), float64(t.wall))
}

// durQuantile is the q-quantile of a span name's inclusive durations, in
// microseconds.
func (t *tracer) durQuantile(name string, q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return quantile(t.durs[name], q)
}

// attribute splits the root span's interval among an op's spans: each
// instant goes to the deepest span active then (the latest started on a
// tie), and the root keeps the instants no span covers. self, in
// nanoseconds by span name, therefore sums to the root's duration; a
// span's self time is its duration minus what its children cover. incl
// credits each instant to every name on the winning span's parent chain
// as well: the time spent inside a layer's calls, callees included.
func attribute(spans []span, root span) (self, incl map[string]int64) {
	self = map[string]int64{rootName: 0}
	incl = map[string]int64{}
	byID := map[int64]*span{root.ID: &root}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	depth := map[int64]int{root.ID: 0}
	var depthOf func(s *span, hops int) int
	depthOf = func(s *span, hops int) int {
		if d, ok := depth[s.ID]; ok {
			return d
		}
		d := 1
		if p := byID[s.Parent]; p != nil && p != s && hops < len(spans) {
			d = depthOf(p, hops+1) + 1
		}
		depth[s.ID] = d
		return d
	}
	type edge struct {
		at    int64
		open  bool
		span  *span
		depth int
	}
	var edges []edge
	for i := range spans {
		s := &spans[i]
		a, b := max(s.Start, root.Start), min(s.End, root.End)
		if a >= b {
			continue
		}
		d := depthOf(s, 0)
		edges = append(edges, edge{a, true, s, d}, edge{b, false, s, d})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].open && edges[j].open
	})
	var active []edge
	prev := root.Start
	credit := func(until int64) {
		if until <= prev {
			return
		}
		d := until - prev
		prev = until
		if len(active) == 0 {
			self[rootName] += d
			return
		}
		best := active[0]
		for _, e := range active[1:] {
			if e.depth > best.depth || (e.depth == best.depth && e.span.Start > best.span.Start) {
				best = e
			}
		}
		self[best.span.Name] += d
		var seen []string
		for s, hops := best.span, 0; s != nil && s.ID != root.ID && hops <= len(spans); s, hops = byID[s.Parent], hops+1 {
			if !slices.Contains(seen, s.Name) {
				seen = append(seen, s.Name)
				incl[s.Name] += d
			}
		}
	}
	for _, e := range edges {
		credit(e.at)
		if e.open {
			active = append(active, e)
			continue
		}
		for i := range active {
			if active[i].span == e.span {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	credit(root.End)
	return self, incl
}

// writeSpans writes the kept spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
