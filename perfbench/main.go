// Command perfbench is the repository's benchmark: it runs one named
// workload against the eXrQuy library or its HTTP daemon for a fixed
// time, checks every result against the reference interpreter, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as a table followed by one JSON line. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/xmark"
)

// metric is one reported figure; note carries what the JSON line has no
// room for (sample counts, the tail percentile). A tableOnly metric is
// printed in the table but not in the JSON line.
type metric struct {
	name, unit string
	value      float64
	note       string
	tableOnly  bool
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	// extra lines printed above the table (layer self times, trace file).
	lines []string
	// invalid is set when the open-loop generator fell behind its bound:
	// the run is not scored.
	invalid error
}

func (r *report) add(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, note: note})
}

func main() {
	workload := flag.String("workload", "", "workload: xmark-join, xmark-scan or served-mix")
	seed := flag.Uint64("seed", 1, "seed of the corpus, the query order and the request schedule")
	seconds := flag.Int("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	oracleOnly := flag.Bool("oracle", false, "compute the reference answers into the oracle cache and exit")
	flag.Parse()
	const root = "." // the checkout; scratch files go under .bench_build

	s, err := specByName(*workload)
	if err == nil && *seconds < 2 {
		err = fmt.Errorf("-seconds must be at least 2")
	}
	if err != nil {
		fatal(err)
	}
	if *oracleOnly {
		if err := buildOracle(root, s, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	xml, err := corpus(s, *seed)
	if err != nil {
		fatal(err)
	}
	orc, err := loadOracle(root, s, *seed, *seconds)
	if err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds) * time.Second
	var rep *report
	switch {
	case s.inproc && *trace == 0:
		rep, err = benchInproc(root, s, xml, orc, *seed, window)
	case s.inproc:
		rep, err = traceInproc(root, s, xml, orc, *seed, window)
	case *trace == 0:
		rep, err = benchServed(s, xml, orc, *seed, window)
	default:
		rep, err = traceServed(root, s, xml, orc, *seed, window)
	}
	if err != nil {
		fatal(err)
	}
	if rep.invalid != nil {
		fatal(fmt.Errorf("invalid run, not scored: %w", rep.invalid))
	}
	rep.print(s, *seed)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func (r *report) print(s spec, seed uint64) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# workload %s, seed %d, factor %g\n", s.name, seed, s.factor)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "# FAILED", p)
	}
	fmt.Fprintf(w, "# %-26s %14s %-6s %s\n", "metric", "value", "unit", "note")
	out := map[string]any{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "# %-26s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		if !m.tableOnly {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil { // a metric that is not a finite number
		w.Flush()
		fatal(fmt.Errorf("result line: %w", err))
	}
	fmt.Fprintln(w, string(line))
}

// endToEnd fills the metrics every workload reports with tracing off.
// The latency percentiles are taken in each slice of the run and the
// median over the slices is reported; closed loops are one slice. Two
// metrics are printed in the table only: fail_ratio, which the JSON line
// carries as failed/attempted (a BENCHMARK.json metric must never be 0),
// and put_p50_ms, which exists on served-mix alone (the traced run
// reports it as server.put_p50_ms).
func (r *report) endToEnd(setups samples, tail float64, lat samples, slices []samples, pairMedians []float64, wall time.Duration, peakMB float64, put samples) {
	var p50s, tails samples
	least := len(lat)
	for _, sl := range slices {
		p50s = append(p50s, sl.median())
		tails = append(tails, sl.percentile(tail))
		least = min(least, len(sl))
	}
	r.add("setup_s", "s", setups.median()/1000, fmt.Sprintf("median of %d set-ups", len(setups)))
	r.add("throughput_qps", "1/s", float64(len(lat))/wall.Seconds(), fmt.Sprintf("%d correct queries in %.2f s", len(lat), wall.Seconds()))
	of := fmt.Sprintf("n=%d", len(lat))
	if len(slices) > 1 {
		of = fmt.Sprintf("median of %d slices, n=%d, least %d per slice", len(slices), len(lat), least)
	}
	r.add("latency_p50_ms", "ms", p50s.median(), of)
	r.add("latency_tail_ms", "ms", tails.median(), fmt.Sprintf("p%g, %s, %d beyond", tail, of, beyond(least, tail)))
	r.add("query_geomean_ms", "ms", geomean(pairMedians), fmt.Sprintf("geomean of %d per-pair medians", len(pairMedians)))
	r.add("peak_rss_mb", "MB", peakMB, "resident high-water mark of the measured window, mapped store pages included")
	r.metrics = append(r.metrics, metric{name: "fail_ratio", unit: "ratio", tableOnly: true,
		value: float64(r.failed) / float64(max(r.attempted, 1)),
		note:  fmt.Sprintf("%d of %d attempted; JSON: failed/attempted", r.failed, r.attempted)})
	if len(put) > 0 {
		r.metrics = append(r.metrics, metric{name: "put_p50_ms", unit: "ms", tableOnly: true, value: put.median(),
			note: fmt.Sprintf("n=%d document re-uploads; traced run: server.put_p50_ms", len(put))})
	}
}

func benchInproc(root string, s spec, xml []byte, orc oracle, seed uint64, window time.Duration) (*report, error) {
	var setups samples
	var env *inproc
	for i := 0; i < s.setups; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		t := time.Now()
		var err error
		if env, err = setupInproc(root, s, xml, nil); err != nil {
			return nil, err
		}
		setups = append(setups, ms(time.Since(t)))
	}
	defer env.close()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	st := runInproc(env, orc, seed, loopOpts{seconds: window, passes: s.minPasses()})
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: st.attempted, failed: st.failed, problems: st.problems}
	var medians []float64
	for i := range env.pairs {
		if lat := st.perPair[i]; len(lat) > 0 {
			medians = append(medians, lat.median())
		}
	}
	rep.lines = append(rep.lines, fmt.Sprintf("# %d passes over %d (query, mode) pairs", st.passes, len(env.pairs)))
	rep.endToEnd(setups, s.tail, st.lat, []samples{st.lat}, medians, st.wall, peak, nil)
	return rep, nil
}

func benchServed(s spec, xml []byte, orc oracle, seed uint64, window time.Duration) (*report, error) {
	var setups samples
	var sv *served
	for i := 0; i < s.setups; i++ {
		if sv != nil {
			sv.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if sv, err = setupServed(s, xml); err != nil {
			return nil, err
		}
		setups = append(setups, ms(time.Since(t)))
	}
	defer sv.close()
	jobs := mixSchedule(seed, window, xmark.CountsFor(s.factor).Persons)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	st := runMix(sv, jobs, orc, nil)
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: st.attempted, failed: st.failed, problems: st.problems, invalid: st.valid()}
	rep.lines = append(rep.lines, st.loadLine())
	rep.endToEnd(setups, s.tail, st.lat, st.slices(window), st.classMedians(), st.window, peak, st.put)
	return rep, nil
}

func (m *mixStats) loadLine() string {
	return fmt.Sprintf("# open loop %d req/s over %d connections: generator lag p50 %.3f ms, p99 %.3f ms, max %.3f ms; backlog max %d; plan cache %d hits, %d misses",
		mixRate, mixConns, m.lag.median(), m.lag.percentile(99), m.lag.percentile(100), m.backlogMax, m.hits, m.misses)
}

func (m *mixStats) classMedians() []float64 {
	classes := make([]string, 0, len(m.perClass))
	for c := range m.perClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var out []float64
	for _, c := range classes {
		out = append(out, m.perClass[c].median())
	}
	return out
}

func tracePath(root string, s spec, seed uint64, suffix string) string {
	return filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d%s.json", s.name, seed, suffix))
}

// programInstructions reads the instruction count from the header line
// of Query.ExplainProgram ("program: N instructions, ...").
func programInstructions(explain string) float64 {
	var n int
	if _, err := fmt.Sscanf(strings.TrimSpace(explain), "program: %d instructions", &n); err != nil {
		return 0
	}
	return float64(n)
}
