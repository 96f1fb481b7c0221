package main

import (
	"fmt"
	"runtime"
	"time"

	exrquy "repro"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
)

// perLayer lists the per-layer metrics every traced run reports, in
// order. A workload whose requests never cross a layer reports 0 for it
// (README.md lists which).
var perLayer = []struct{ name, unit string }{
	{"xquery.parse_us", "us"},
	{"norm.normalize_us", "us"},
	{"compile.compile_us", "us"},
	{"opt.optimize_us", "us"},
	{"vm.flatten_us", "us"},
	{"compile.operators", "count"},
	{"opt.operators", "count"},
	{"opt.rownum_ops", "count"},
	{"opt.rowid_ops", "count"},
	{"vm.instructions", "count"},
	{"vm.execute_ms", "ms"},
	{"engine.join_ms", "ms"},
	{"engine.join_rows", "count"},
	{"engine.semijoin_ms", "ms"},
	{"engine.step_ms", "ms"},
	{"engine.rownum_ms", "ms"},
	{"engine.rownum_rows", "count"},
	{"engine.rowid_rows", "count"},
	{"engine.cells", "count"},
	{"engine.allocs_per_query", "count"},
	{"engine.alloc_mb_per_query", "MB"},
	{"xdm.pool_hit_ratio", "ratio"},
	{"parallel.morsels", "count"},
	{"parallel.busy_ratio", "ratio"},
	{"store.write_ms", "ms"},
	{"store.attach_ms", "ms"},
	{"store.page_faults", "count"},
	{"store.evictions", "count"},
	{"store.resident_mb", "MB"},
	{"store.sample_ms", "ms"},
	{"xmltree.parse_ms", "ms"},
	{"exrquy.serialize_ms", "ms"},
	{"exrquy.result_kb", "KB"},
	{"server.overhead_hit_ms", "ms"},
	{"server.overhead_miss_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_scoped_dropped", "count"},
	{"server.put_p50_ms", "ms"},
	{"governor.queue_wait_ms", "ms"},
	{"governor.shed", "count"},
	{"governor.degraded", "count"},
	{"resilience.rejects", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.uncovered_pct", "%"},
}

// layers adds every per-layer metric, taking values from vals and
// reporting the rest as not exercised by this workload.
func (r *report) layers(vals map[string]float64) {
	for _, l := range perLayer {
		v, ok := vals[l.name]
		note := ""
		if !ok {
			note = "not exercised by this workload"
		}
		r.add(l.name, l.unit, v, note)
	}
}

// staticPhases reads the static pipeline's mean phase times, in µs per
// compilation, from the engine's phase spans.
func staticPhases(rec *recorder, vals map[string]float64) {
	for metric, phase := range map[string]string{
		"xquery.parse_us": "parse", "norm.normalize_us": "normalize", "compile.compile_us": "compile",
		"opt.optimize_us": "optimize", "vm.flatten_us": "flatten",
	} {
		vals[metric] = 1000 * rec.meanMS("phase/"+phase)
	}
}

// planShape adds the plan-shape counts as means over the given plans.
func planShape(qs []*exrquy.Query, vals map[string]float64) {
	n := float64(len(qs))
	for _, q := range qs {
		before, after := q.PlanStats()
		vals["compile.operators"] += float64(before.Operators) / n
		vals["opt.operators"] += float64(after.Operators) / n
		vals["opt.rownum_ops"] += float64(after.Sorts) / n
		vals["opt.rowid_ops"] += float64(after.Stamps) / n
		vals["vm.instructions"] += programInstructions(q.ExplainProgram()) / n
	}
}

// executor adds the per-operator statistics, as means per query.
func executor(l *layerSums, vals map[string]float64) {
	n := float64(max(l.queries, 1))
	vals["engine.join_ms"] = float64(l.joinNS) / 1e6 / n
	vals["engine.join_rows"] = float64(l.joinRows) / n
	vals["engine.semijoin_ms"] = float64(l.semiNS) / 1e6 / n
	vals["engine.step_ms"] = float64(l.stepNS) / 1e6 / n
	vals["engine.rownum_ms"] = float64(l.rownumNS) / 1e6 / n
	vals["engine.rownum_rows"] = float64(l.rownumRows) / n
	vals["engine.rowid_rows"] = float64(l.rowidRows) / n
	vals["engine.cells"] = float64(l.cells) / n
	vals["exrquy.result_kb"] = float64(l.resultBytes) / 1024 / n
	if p := l.poolHits + l.poolMisses; p > 0 {
		vals["xdm.pool_hit_ratio"] = float64(l.poolHits) / float64(p)
	}
}

func allocs(mallocs, bytes uint64, queries int64, vals map[string]float64) {
	n := float64(max(queries, 1))
	vals["engine.allocs_per_query"] = float64(mallocs) / n
	vals["engine.alloc_mb_per_query"] = float64(bytes) / (1 << 20) / n
}

// traceInproc is the traced run of an in-process workload. The first
// half of the time runs untraced and uninstrumented, then one more pass
// reads runtime.MemStats around each call for the allocation figures;
// the second half runs on engines built WithCollect and WithTracer, with
// the benchmark's spans around every layer call. The throughput
// difference between the halves is the tracing overhead.
func traceInproc(root string, s spec, xml []byte, orc oracle, seed uint64, window time.Duration) (*report, error) {
	env, err := setupInproc(root, s, xml, nil)
	if err != nil {
		return nil, err
	}
	base := runInproc(env, orc, seed, loopOpts{seconds: window / 2})
	mem := runInproc(env, orc, seed, loopOpts{passes: 1, memstats: true})
	env.close()

	rec := newRecorder()
	if env, err = setupInproc(root, s, xml, rec); err != nil {
		return nil, err
	}
	defer env.close()
	vals := map[string]float64{}
	staticPhases(rec, vals)
	rec.reset()
	st := runInproc(env, orc, seed, loopOpts{seconds: window / 2, rec: rec})

	rep := &report{attempted: base.attempted + mem.attempted + st.attempted, failed: base.failed + mem.failed + st.failed,
		problems: append(append(base.problems, mem.problems...), st.problems...)}
	planShape(env.queries, vals)
	executor(&st.layer, vals)
	allocs(mem.layer.mallocs, mem.layer.allocBytes, mem.layer.memQueries, vals)
	vals["vm.execute_ms"] = rec.meanMS("phase/execute")
	vals["exrquy.serialize_ms"] = rec.meanMS("bench/exrquy.XML")
	vals["xmltree.parse_ms"] = ms(env.parse) / float64(env.parses)
	if s.parallel > 1 {
		vals["parallel.morsels"] = float64(st.layer.morsels) / float64(max(st.layer.queries, 1))
		if st.layer.parWallNS > 0 {
			vals["parallel.busy_ratio"] = float64(st.layer.busyNS) / float64(st.layer.parWallNS)
		}
	}
	if s.store {
		n := float64(max(st.layer.queries, 1))
		vals["store.write_ms"] = ms(env.write)
		vals["store.attach_ms"] = ms(env.attach) / float64(env.attaches)
		vals["store.page_faults"] = float64(st.layer.pageFaults) / n
		vals["store.evictions"] = float64(st.layer.evictions) / n
		vals["store.resident_mb"] = float64(st.layer.resident) / (1 << 20) / n
		vals["store.sample_ms"] = rec.meanMS("bench/exrquy.SampleStores")
	}
	qps0 := float64(len(base.lat)) / base.wall.Seconds()
	qps1 := float64(len(st.lat)) / st.wall.Seconds()
	vals["trace.overhead_pct"] = 100 * (qps0/qps1 - 1)
	vals["trace.uncovered_pct"] = rec.uncoveredPct()
	rep.layers(vals)
	rep.lines = append(rep.lines, fmt.Sprintf("# untraced half: %d passes, %.2f q/s; traced half: %d passes, %.2f q/s",
		base.passes, qps0, st.passes, qps1))
	rep.lines = append(rep.lines, traceLines(rec, tracePath(root, s, seed, ""))...)
	return rep, nil
}

// traceLines renders the layer self-time table and writes the Chrome
// trace file.
func traceLines(rec *recorder, path string) []string {
	lines := rec.report()
	if err := rec.writeChrome(path); err != nil {
		return append(lines, fmt.Sprintf("# chrome trace not written: %v", err))
	}
	return append(lines, "# chrome trace: "+path)
}

// traceServed is the traced run of served-mix. The schedule of the full
// window is split in two: the first half runs untraced, the second with
// client-side spans per request (queue wait, round trip, and the
// daemon's X-Query-Elapsed inside it). Daemon counters come from
// /debug/stats and the process-wide metrics, read around the traced
// half. The daemon accepts no tracer, so the static pipeline and the
// executor are measured by replaying the traced half's reads on an
// engine built like the daemon's with both hooks on.
func traceServed(root string, s spec, xml []byte, orc oracle, seed uint64, window time.Duration) (*report, error) {
	jobs := mixSchedule(seed, window, xmark.CountsFor(s.factor).Persons)
	var first, second []mixJob
	for _, j := range jobs {
		if j.due < window/2 {
			first = append(first, j)
		} else {
			j.due -= window / 2
			second = append(second, j)
		}
	}
	sv, err := setupServed(s, xml)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base := runMix(sv, first, orc, nil)
	runtime.ReadMemStats(&m1)

	rec := newRecorder()
	d0, err := sv.stats()
	if err != nil {
		return nil, err
	}
	wait0, waits0, rej0 := metricValue("governor_queue_wait_ns"), metricCount("governor_queue_wait_ns"), rejects()
	st := runMix(sv, second, orc, rec)
	d1, err := sv.stats()
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: base.attempted + st.attempted, failed: base.failed + st.failed,
		problems: append(base.problems, st.problems...)}
	if rep.invalid = base.valid(); rep.invalid == nil {
		rep.invalid = st.valid()
	}

	vals := map[string]float64{}
	allocs(m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, int64(len(base.lat)), vals)
	vals["xmltree.parse_ms"] = ms(sv.parse)
	vals["server.overhead_hit_ms"] = st.overheadHit.median()
	vals["server.overhead_miss_ms"] = st.overheadMiss.median()
	if h, m := d1.Cache.Hits-d0.Cache.Hits, d1.Cache.Misses-d0.Cache.Misses; h+m > 0 {
		vals["server.cache_hit_ratio"] = float64(h) / float64(h+m)
	}
	vals["server.cache_scoped_dropped"] = float64(d1.Cache.ScopedDropped - d0.Cache.ScopedDropped)
	vals["server.put_p50_ms"] = st.put.median()
	vals["governor.queue_wait_ms"] = 0 // no admission waited
	if n := metricCount("governor_queue_wait_ns") - waits0; n > 0 {
		vals["governor.queue_wait_ms"] = float64(metricValue("governor_queue_wait_ns")-wait0) / 1e6 / float64(n)
	}
	vals["governor.shed"] = float64(d1.Governor.Shed - d0.Governor.Shed)
	vals["governor.degraded"] = float64(d1.Governor.Downgrades - d0.Governor.Downgrades)
	vals["resilience.rejects"] = float64(rejects() - rej0)
	vals["loadgen.lag_p99_ms"] = st.lag.percentile(99)
	vals["loadgen.backlog_max"] = float64(st.backlogMax)
	vals["trace.overhead_pct"] = 100 * (st.lat.median()/base.lat.median() - 1)
	vals["trace.uncovered_pct"] = rec.uncoveredPct()

	engRec := newRecorder()
	sums, plans, err := replay(xml, second, engRec)
	if err != nil {
		return nil, err
	}
	staticPhases(engRec, vals)
	var fixed []*exrquy.Query
	for _, id := range s.queries {
		if q := plans[xmarkq.Get(id).Text]; q != nil {
			fixed = append(fixed, q)
		}
	}
	planShape(fixed, vals)
	executor(sums, vals)
	vals["vm.execute_ms"] = engRec.meanMS("phase/execute")
	vals["exrquy.serialize_ms"] = engRec.meanMS("bench/exrquy.XML")
	rep.layers(vals)
	rep.lines = append(rep.lines, base.loadLine(), st.loadLine())
	rep.lines = append(rep.lines, fmt.Sprintf("# untraced half p50 %.3f ms, traced half p50 %.3f ms", base.lat.median(), st.lat.median()))
	rep.lines = append(rep.lines, traceLines(rec, tracePath(root, s, seed, ""))...)
	rep.lines = append(rep.lines, "# replay of the traced half's reads on an engine built like the daemon's:")
	rep.lines = append(rep.lines, traceLines(engRec, tracePath(root, s, seed, "-replay"))...)
	return rep, nil
}

// rejects sums the resilience layer's refusals: rate limits, open
// circuit breakers, watchdog kills and drain refusals.
func rejects() int64 {
	return metricValue("ratelimit_limited_total") + metricValue("breaker_rejects_total") +
		metricValue("watchdog_kills_total") + metricValue("server_drain_rejects_total")
}
