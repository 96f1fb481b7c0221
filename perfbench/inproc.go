package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	exrquy "repro"
)

// inproc is a set-up in-process workload: one engine per ordering mode
// and every pair compiled and warmed up.
type inproc struct {
	s       spec
	pairs   []pair
	engines [2]*exrquy.Engine // ordered, unordered
	queries []*exrquy.Query   // by pair index
	dir     string            // on-disk store, when s.store
	dirs    []string

	// Layer times of this set-up, and how many parses and mounts they sum.
	parse, write, attach time.Duration
	parses, attaches     int
}

// setupInproc performs the program set-up of an in-process workload:
// parsing the corpus, for xmark-scan writing it to a 2-way sharded store
// and mounting it under a quarter-size paging budget, compiling every
// pair, and one warm-up execution of each. rec, when not nil, receives
// the engines' spans and turns on per-operator statistics.
func setupInproc(root string, s spec, xml []byte, rec *recorder) (*inproc, error) {
	env := &inproc{s: s, pairs: pairs(s)}
	opts := func(unordered bool, extra ...exrquy.Option) []exrquy.Option {
		o := append([]exrquy.Option(nil), extra...)
		if unordered {
			o = append(o, exrquy.WithOrdering(exrquy.Unordered))
		}
		if s.parallel > 1 {
			o = append(o, exrquy.WithParallelism(s.parallel))
		}
		if rec != nil {
			o = append(o, exrquy.WithCollect(true), exrquy.WithTracer(rec))
		}
		return o
	}
	if !s.store {
		for m := range env.engines {
			eng := exrquy.New(opts(m == 1)...)
			t := time.Now()
			if err := eng.LoadDocument(docName, bytes.NewReader(xml)); err != nil {
				return nil, fmt.Errorf("load corpus: %w", err)
			}
			env.parse += time.Since(t)
			env.parses++
			env.engines[m] = eng
		}
	} else if err := env.setupStore(root, xml, opts); err != nil {
		env.close()
		return nil, err
	}
	for _, p := range env.pairs {
		end := span0(rec, "bench", "compile "+p.String())
		q, err := env.engine(p).Compile(p.query.Text)
		end()
		if err != nil {
			env.close()
			return nil, fmt.Errorf("compile %s: %w", p, err)
		}
		env.queries = append(env.queries, q)
	}
	for i := range env.pairs {
		end := span0(rec, "bench", "warm-up "+env.pairs[i].String())
		res, err := env.queries[i].Execute()
		if err == nil {
			_, err = res.XML()
		}
		end()
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up %s: %w", env.pairs[i], err)
		}
		env.sample()
	}
	return env, nil
}

func (env *inproc) setupStore(root string, xml []byte, opts func(bool, ...exrquy.Option) []exrquy.Option) error {
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "store-")
	if err != nil {
		return err
	}
	env.dir = dir
	env.dirs = []string{filepath.Join(dir, "shard0"), filepath.Join(dir, "shard1")}
	loader := exrquy.New()
	t := time.Now()
	if err := loader.LoadDocument(docName, bytes.NewReader(xml)); err != nil {
		return fmt.Errorf("load corpus: %w", err)
	}
	env.parse, env.parses = time.Since(t), 1
	t = time.Now()
	if err := loader.WriteStore(docName, env.dirs...); err != nil {
		return fmt.Errorf("write store: %w", err)
	}
	env.write = time.Since(t)
	// A budget-free mount measures the mapped size the budget derives from.
	probe := exrquy.New()
	if err := env.mount(probe); err != nil {
		return err
	}
	mapped, _ := probe.SampleStores()
	if _, err := probe.DetachStore(env.dirs[0]); err != nil {
		return fmt.Errorf("detach store: %w", err)
	}
	for m := range env.engines {
		env.engines[m] = exrquy.New(opts(m == 1, exrquy.WithStoreBudget(mapped/4))...)
		if err := env.mount(env.engines[m]); err != nil {
			return err
		}
	}
	return nil
}

// mount attaches the store to eng, timing the call.
func (env *inproc) mount(eng *exrquy.Engine) error {
	t := time.Now()
	if _, err := eng.AttachStore(env.dirs...); err != nil {
		return fmt.Errorf("attach store: %w", err)
	}
	env.attach += time.Since(t)
	env.attaches++
	return nil
}

func (env *inproc) engine(p pair) *exrquy.Engine {
	if p.unordered {
		return env.engines[1]
	}
	return env.engines[0]
}

// sample refreshes store residency accounting, which is also what makes
// the paging budget evict; the store workload calls it between queries.
func (env *inproc) sample() (resident int64) {
	if !env.s.store {
		return 0
	}
	for _, eng := range env.engines {
		_, r := eng.SampleStores()
		resident += r
	}
	return resident
}

func (env *inproc) close() {
	for _, eng := range env.engines {
		if eng != nil && env.s.store {
			eng.DetachStore(env.dirs[0]) //nolint:errcheck // not every engine got to attach
		}
	}
	if env.dir != "" {
		os.RemoveAll(env.dir)
	}
}

// loopStats is what one measured closed loop observed.
type loopStats struct {
	lat       samples         // per request, execute + serialize
	perPair   map[int]samples // by pair index
	wall      time.Duration   // request windows plus store sampling
	attempted int
	failed    int
	problems  []string
	passes    int

	// Per-layer sums, filled when the engines collect statistics.
	layer layerSums
}

// layerSums accumulates per-operator statistics and other layer
// observations over a loop.
type layerSums struct {
	queries                                int64
	joinNS, semiNS, stepNS, rownumNS       int64
	joinRows, rownumRows, rowidRows, cells int64
	morsels, busyNS, parWallNS             int64
	poolHits, poolMisses                   int64
	resultBytes, resident                  int64
	mallocs, allocBytes                    uint64
	memQueries                             int64
	pageFaults, evictions                  int64
}

func (l *layerSums) addStats(st *exrquy.RunStats, workers int) {
	if st == nil {
		return
	}
	for _, op := range st.Ops {
		switch op.Kind {
		case "join":
			l.joinNS += int64(op.Wall)
			l.joinRows += op.RowsOut
		case "semijoin", "difference":
			l.semiNS += int64(op.Wall)
		case "step":
			l.stepNS += int64(op.Wall)
		case "rownum":
			l.rownumNS += int64(op.Wall)
			l.rownumRows += op.RowsIn
		case "rowid":
			l.rowidRows += op.RowsIn
		}
		l.cells += op.Cells
		if op.Morsels > 0 {
			l.morsels += op.Morsels
			l.busyNS += int64(op.Busy)
			l.parWallNS += int64(op.Wall) * int64(workers)
		}
	}
	l.poolHits += st.PoolHits
	l.poolMisses += st.PoolMisses
}

// loopOpts selects how a loop runs.
type loopOpts struct {
	seconds  time.Duration // run whole passes for at least this long
	passes   int           // and at least this many
	rec      *recorder     // spans around every layer call
	memstats bool          // read runtime.MemStats around every request
}

// runInproc runs whole passes over the workload's pairs, each pass in a
// seeded order, with one caller: the next query starts when the previous
// result has been serialized (closed loop). Every result is checked
// against the oracle outside the timed window (unless orc is nil, as in
// the exact-count test, which checks counts instead).
func runInproc(env *inproc, orc oracle, seed uint64, o loopOpts) loopStats {
	rng := rand.New(rand.NewSource(int64(seed)))
	st := loopStats{perPair: map[int]samples{}}
	faults0, evictions0 := metricValue("store_page_faults_total"), metricValue("store_evictions_total")
	start := time.Now()
	for st.passes < o.passes || time.Since(start) < o.seconds {
		for _, i := range rng.Perm(len(env.pairs)) {
			env.one(i, orc, o, &st)
		}
		st.passes++
	}
	st.layer.pageFaults = metricValue("store_page_faults_total") - faults0
	st.layer.evictions = metricValue("store_evictions_total") - evictions0
	return st
}

func (env *inproc) one(i int, orc oracle, o loopOpts, st *loopStats) {
	p, q := env.pairs[i], env.queries[i]
	var m0, m1 runtime.MemStats
	if o.memstats {
		runtime.ReadMemStats(&m0)
	}
	endReq := span0(o.rec, "bench", "request "+p.String())
	t0 := time.Now()
	end := span0(o.rec, "bench", "exrquy.Execute")
	res, err := q.Execute()
	end()
	var xml string
	if err == nil {
		end = span0(o.rec, "bench", "exrquy.XML")
		xml, err = res.XML()
		end()
	}
	d := time.Since(t0)
	t1 := time.Now()
	var resident int64
	if env.s.store {
		end = span0(o.rec, "bench", "exrquy.SampleStores")
		resident = env.sample()
		end()
	}
	ds := time.Since(t1)
	endReq()
	if o.memstats {
		runtime.ReadMemStats(&m1)
		st.layer.mallocs += m1.Mallocs - m0.Mallocs
		st.layer.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		st.layer.memQueries++
	}

	st.attempted++
	st.wall += d + ds
	if err == nil && orc != nil {
		bag := p.unordered || !p.query.OrderedDeterministic
		err = orc.check(p.query.Text, xml, bag, res.Items)
	}
	if err != nil {
		st.failed++
		if len(st.problems) < 5 {
			st.problems = append(st.problems, fmt.Sprintf("%s: %v", p, err))
		}
		return
	}
	st.lat = append(st.lat, ms(d))
	st.perPair[i] = append(st.perPair[i], ms(d))
	st.layer.queries++
	st.layer.resultBytes += int64(len(xml))
	st.layer.resident += resident
	st.layer.addStats(res.Stats(), env.s.parallel)
}

// noSpan closes nothing.
func noSpan() {}

// span0 opens a span on the in-process caller's track when tracing.
func span0(rec *recorder, cat, name string) func() {
	if rec == nil {
		return noSpan
	}
	return rec.enter(cat, name)
}

// metricValue reads a counter (or a histogram's sum) from the process-
// wide engine metrics.
func metricValue(name string) int64 {
	for _, m := range exrquy.Metrics() {
		if m.Name == name {
			if m.Kind == "histogram" {
				return m.Sum
			}
			return m.Value
		}
	}
	return 0
}

// metricCount reads a histogram's observation count.
func metricCount(name string) int64 {
	for _, m := range exrquy.Metrics() {
		if m.Name == name {
			return m.Count
		}
	}
	return 0
}
