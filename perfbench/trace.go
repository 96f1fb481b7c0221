package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed layer call of one request. Spans of a request share
// req; parent is the id of the span that caused it (0 for the request's
// root). track is the timeline row: 0 for the calling goroutine, k for
// parallel worker k, or the client connection in served-mix.
type span struct {
	id, parent, req int64
	track           int
	cat, name       string
	start, end      time.Duration // since the recorder started
}

// maxExported bounds the spans kept for the Chrome trace file; the
// aggregates below cover every span.
const maxExported = 200000

// recorder keeps the spans of open requests in memory. When a request's
// root span ends it folds the request into per-layer aggregates (total
// and self time per span name) and into the coverage of the request's
// wall clock by layer spans, then keeps the spans for export.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	nextID   int64
	open     map[int64]*span   // by span id, until the request completes
	byReq    map[int64][]*span // spans of requests in progress
	stack    []int64           // open spans of the single in-process caller
	curReq   int64
	exported []span

	total, self map[string]time.Duration // per "cat/name" key
	count       map[string]int64
	rootWall    time.Duration // summed request root durations
	covered     time.Duration // part of rootWall covered by child spans
}

func newRecorder() *recorder {
	return &recorder{
		t0: time.Now(), open: map[int64]*span{}, byReq: map[int64][]*span{},
		total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int64{},
	}
}

// begin opens a span of request req under parent.
func (r *recorder) begin(req, parent int64, track int, cat, name string) int64 {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s := &span{id: r.nextID, parent: parent, req: req, track: track, cat: cat, name: name, start: now}
	r.open[s.id] = s
	r.byReq[req] = append(r.byReq[req], s)
	return s.id
}

// end closes span id; ending a request's root span completes the request.
func (r *recorder) end(id int64) {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.open[id]
	if s == nil {
		return
	}
	s.end = now
	if s.parent == 0 {
		r.finish(s.req)
	}
}

// newID allocates a span or request id.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records an already finished span with a preallocated id, for
// callers that learn a span's bounds after the fact: the open-loop
// client, and the daemon's X-Query-Elapsed. Adding a request's root
// span (parent 0) completes the request, so add it last.
func (r *recorder) add(id, parent, req int64, track int, cat, name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{id: id, parent: parent, req: req, track: track, cat: cat, name: name,
		start: start.Sub(r.t0), end: end.Sub(r.t0)}
	r.open[s.id] = s
	r.byReq[req] = append(r.byReq[req], s)
	if parent == 0 {
		r.finish(req)
	}
}

// reset clears the aggregates, keeping the spans already exported: set-
// up spans stay in the trace file but not in the measured figures.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total = map[string]time.Duration{}
	r.self = map[string]time.Duration{}
	r.count = map[string]int64{}
	r.rootWall, r.covered = 0, 0
}

// enter opens a span for the single in-process caller, as a child of its
// innermost open span; the returned func closes it.
func (r *recorder) enter(cat, name string) func() {
	r.mu.Lock()
	parent := int64(0)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	} else {
		r.nextID++
		r.curReq = r.nextID
	}
	req := r.curReq
	r.mu.Unlock()
	id := r.begin(req, parent, 0, cat, name)
	r.mu.Lock()
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		for i := len(r.stack) - 1; i >= 0; i-- {
			if r.stack[i] == id {
				r.stack = append(r.stack[:i], r.stack[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
		r.end(id)
	}
}

// StartSpan implements exrquy.Tracer: the engine's phase and operator
// spans nest under the caller's open span; morsel spans from worker
// goroutines (tid > 0) hang off it without becoming a parent themselves.
func (r *recorder) StartSpan(tid int, cat, name string) func() {
	if tid == 0 {
		return r.enter(cat, name)
	}
	r.mu.Lock()
	parent, req := int64(0), r.curReq
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.mu.Unlock()
	id := r.begin(req, parent, tid, cat, name)
	return func() { r.end(id) }
}

// spanKey groups spans for the aggregates: operator spans by operator
// kind (the first word of the label), the rest by name.
func spanKey(s *span) string {
	name := s.name
	if s.cat == "op" || s.cat == "morsel" {
		if i := strings.IndexByte(name, ' '); i > 0 {
			name = name[:i]
		}
	}
	return s.cat + "/" + name
}

// finish folds a completed request into the aggregates. Called with mu
// held. Self time is a span's duration minus the union of its children's
// intervals; coverage is the union of the root's children over the root.
func (r *recorder) finish(req int64) {
	spans := r.byReq[req]
	delete(r.byReq, req)
	children := map[int64][]*span{}
	for _, s := range spans {
		delete(r.open, s.id)
		if s.end < s.start { // never closed: an aborted call
			s.end = s.start
		}
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, s := range spans {
		d := s.end - s.start
		c := union(s, children[s.id])
		k := spanKey(s)
		r.total[k] += d
		r.self[k] += d - c
		r.count[k]++
		if s.parent == 0 {
			r.rootWall += d
			r.covered += c
		}
		if len(r.exported) < maxExported {
			r.exported = append(r.exported, *s)
		}
	}
}

// union is the length of the union of the children's intervals, clipped
// to the parent's.
func union(parent *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, hi time.Duration
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			sum += v.b - hi
			hi = v.b
		}
	}
	return sum
}

// meanMS is the mean duration of spans under key, in milliseconds.
func (r *recorder) meanMS(key string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count[key] == 0 {
		return 0
	}
	return ms(r.total[key]) / float64(r.count[key])
}

// uncoveredPct is the share of request wall clock outside every layer
// span, in percent.
func (r *recorder) uncoveredPct() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rootWall == 0 {
		return 0
	}
	return 100 * float64(r.rootWall-r.covered) / float64(r.rootWall)
}

// report renders the layers by self time, largest first.
func (r *recorder) report() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.self))
	for k := range r.self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return r.self[keys[i]] > r.self[keys[j]] })
	lines := []string{
		fmt.Sprintf("# layer self time over %d ms of request wall clock (%.2f%% outside any layer span)",
			int64(ms(r.rootWall)), 100*float64(r.rootWall-r.covered)/float64(max(r.rootWall, 1))),
		fmt.Sprintf("#   %-28s %10s %10s %10s", "span", "count", "total_ms", "self_ms"),
	}
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("#   %-28s %10d %10.1f %10.1f", k, r.count[k], ms(r.total[k]), ms(r.self[k])))
	}
	return lines
}

// writeChrome writes the exported spans as Chrome trace JSON (complete
// events, timestamps in microseconds), loadable in chrome://tracing or
// Perfetto.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	for i, s := range r.exported {
		if i > 0 {
			w.WriteString(",")
		}
		ev := event{Name: s.name, Cat: s.cat, Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.track, Args: map[string]int64{"id": s.id, "parent": s.parent, "req": s.req}}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
