package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/xmark"
	"repro/internal/xmarkq"
)

// spec describes one workload. The benchmark hands the program only the
// generated XML and query text; the factor, the query set and the
// engine configuration are fixed here.
type spec struct {
	name    string
	factor  float64
	queries []int
	// inproc workloads drive the library in a closed loop with one
	// caller; the other workload drives the HTTP daemon open loop.
	inproc bool
	// store serves the corpus from a 2-way sharded on-disk store paged
	// under a budget of a quarter of its mapped size.
	store    bool
	parallel int
	// setups is how many times a run performs its set-up; setup_s is
	// the median, and the last set-up is the one measured.
	setups int
	// tail is the percentile latency_tail_ms reports. It is fixed per
	// workload, so that it does not move with the sample count, at the
	// highest percentile a run keeps at least tailBeyond samples beyond:
	// closed loops run at least enough passes for that. On served-mix
	// p90 sits among the plan-cache misses; the slowest few percent come
	// in bursts, one per document re-upload (the daemon parses the
	// corpus beside the reads), so a higher percentile would stem from
	// two or three uploads.
	tail float64
}

// cheapQueries are the XMark queries without value joins.
var cheapQueries = []int{1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18, 19, 20}

var specs = []spec{
	{name: "xmark-join", factor: 0.02, queries: []int{8, 9, 10, 11, 12}, inproc: true, setups: 3, tail: 90},
	{name: "xmark-scan", factor: 0.2, queries: cheapQueries, inproc: true, store: true, parallel: 2, setups: 3, tail: 95},
	{name: "served-mix", factor: 0.01, queries: cheapQueries, setups: 11, tail: 90},
}

func specByName(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// docName is the URI every XMark query reads.
const docName = "auction.xml"

// corpus generates the workload's XMark document for seed.
func corpus(s spec, seed uint64) ([]byte, error) {
	var buf bytes.Buffer
	if err := xmark.WriteXML(&buf, xmark.Config{Factor: s.factor, Seed: seed}); err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	return buf.Bytes(), nil
}

// pair is one (query, ordering mode) combination of an in-process
// workload. Ordered mode is the prolog default; unordered mode runs on
// an engine built WithOrdering(Unordered).
type pair struct {
	query     xmarkq.Query
	unordered bool
}

func (p pair) String() string {
	if p.unordered {
		return p.query.Name + "/unordered"
	}
	return p.query.Name + "/ordered"
}

// minPasses is the number of closed-loop passes that leaves tailBeyond
// samples beyond the workload's tail percentile.
func (s spec) minPasses() int {
	need := math.Ceil(tailBeyond * 100 / (100 - s.tail))
	return int(math.Ceil(need / float64(2*len(s.queries))))
}

func pairs(s spec) []pair {
	var out []pair
	for _, unordered := range []bool{false, true} {
		for _, id := range s.queries {
			out = append(out, pair{query: xmarkq.Get(id), unordered: unordered})
		}
	}
	return out
}

// served-mix traffic. At 200 req/s, half the daemon's saturation rate
// with every request a plan-cache hit (~400 req/s on two CPUs), this mix
// of hits, misses and uploads saturated whenever the host took CPU time
// away (generator lag p99 27 ms, median latency doubled); at 100 req/s
// the daemon stays unsaturated and the window measures service, not a
// growing queue.
const (
	mixRate      = 100             // read requests per second, open loop
	mixVariantIn = 5               // one read in five is a literal variant
	mixPutEvery  = 2 * time.Second // mean spacing of document re-uploads
	mixConns     = 2               // read connections to the daemon
	mixSlice     = mixPutEvery     // least length of a latency slice
)

// mixJob is one scheduled request of served-mix.
type mixJob struct {
	due   time.Duration // offset from the start of the measured window
	class string        // query name, variant family ("Q1v") or "put"
	text  string        // query text; empty for a document upload
}

func (j mixJob) put() bool { return j.text == "" }

// mixSchedule draws the served-mix requests of a window of the given
// length from seed: reads at a fixed spacing of 1/mixRate, each either a
// fixed text of one of the cheap queries or a literal variant of
// Q1/Q4/Q5, and document re-uploads at jittered times. persons is the
// corpus's person count, the range of the drawn person ids. The mix is
// dealt from shuffled decks, so every seed offers the same composition:
// exactly one read in each five is a variant, each 15 fixed reads name
// every cheap query once, and each three variants rewrite each of
// Q1/Q4/Q5 once. The seed sets the order and the literals.
func mixSchedule(seed uint64, window time.Duration, persons int) []mixJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	slots, fixed, families := newDeck(rng, mixVariantIn), newDeck(rng, len(cheapQueries)), newDeck(rng, 3)
	var jobs []mixJob
	gap := time.Second / mixRate
	for due := time.Duration(0); due < window; due += gap {
		if slots.next() == 0 {
			jobs = append(jobs, variant(rng, due, persons, families.next()))
			continue
		}
		q := xmarkq.Get(cheapQueries[fixed.next()])
		jobs = append(jobs, mixJob{due: due, class: q.Name, text: q.Text})
	}
	for at := time.Duration(0); at < window; at += mixPutEvery {
		jitter := time.Duration(rng.Int63n(int64(mixPutEvery / 2)))
		jobs = append(jobs, mixJob{due: at + mixPutEvery/4 + jitter, class: "put"})
	}
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].due < jobs[k].due })
	return jobs
}

// deck deals 0..n-1 in shuffled rounds: any round of n draws holds each
// value once.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// variant rewrites one literal of Q1 (a person id), Q4 (the two person
// ids) or Q5 (the price threshold), by family 0, 1 or 2, so the text
// misses the plan cache.
func variant(rng *rand.Rand, due time.Duration, persons, family int) mixJob {
	person := func() string { return fmt.Sprintf(`"person%d"`, rng.Intn(persons)) }
	var q xmarkq.Query
	var text string
	switch family {
	case 0:
		q = xmarkq.Get(1)
		text = mustReplace(q.Text, `"person0"`, person())
	case 1:
		q = xmarkq.Get(4)
		text = mustReplace(q.Text, `"person20"`, person())
		text = mustReplace(text, `"person51"`, person())
	default:
		q = xmarkq.Get(5)
		text = mustReplace(q.Text, `>= 40`, fmt.Sprintf(">= %d.%02d", rng.Intn(200), rng.Intn(100)))
	}
	return mixJob{due: due, class: q.Name + "v", text: text}
}

func mustReplace(s, old, repl string) string {
	if !strings.Contains(s, old) {
		panic(fmt.Sprintf("query text lost literal %s", old))
	}
	return strings.Replace(s, old, repl, 1)
}

// mixTexts lists the distinct query texts of a schedule, the set the
// oracle must cover.
func mixTexts(jobs []mixJob) []string {
	seen := map[string]bool{}
	var out []string
	for _, j := range jobs {
		if !j.put() && !seen[j.text] {
			seen[j.text] = true
			out = append(out, j.text)
		}
	}
	return out
}

// texts lists the query texts a workload run executes.
func texts(s spec, seed uint64, seconds int) []string {
	if s.inproc {
		var out []string
		for _, id := range s.queries {
			out = append(out, xmarkq.Get(id).Text)
		}
		return out
	}
	return mixTexts(mixSchedule(seed, time.Duration(seconds)*time.Second, xmark.CountsFor(s.factor).Persons))
}
