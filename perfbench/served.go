package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	exrquy "repro"
	"repro/internal/server"
	"repro/internal/xmarkq"
)

// served is a set-up served-mix: the daemon on a loopback listener with
// the corpus loaded and every fixed query text warmed into its plan
// cache, a client for reads limited to mixConns connections, and one
// more connection for document uploads.
type served struct {
	srv      *server.Server
	serveErr chan error // Serve's return value
	tr, upTr *http.Transport
	client   *http.Client
	uploader *http.Client
	base     string
	xml      []byte
	parse    time.Duration
}

func setupServed(s spec, xml []byte) (*served, error) {
	srv := server.New(server.Config{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	sv := &served{srv: srv, serveErr: make(chan error, 1), xml: xml, base: "http://" + srv.Addr()}
	go func() { sv.serveErr <- srv.Serve() }()
	sv.tr = &http.Transport{MaxConnsPerHost: mixConns, MaxIdleConnsPerHost: mixConns, DisableCompression: true}
	sv.client = &http.Client{Transport: sv.tr}
	sv.upTr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	sv.uploader = &http.Client{Transport: sv.upTr}
	t := time.Now()
	if err := srv.Engine().LoadDocument(docName, bytes.NewReader(xml)); err != nil {
		sv.close()
		return nil, fmt.Errorf("load corpus: %w", err)
	}
	sv.parse = time.Since(t)
	for _, id := range s.queries {
		r := sv.query(xmarkq.Get(id).Text)
		if r.err != nil {
			sv.close()
			return nil, fmt.Errorf("warm-up Q%d: %w", id, r.err)
		}
	}
	return sv, nil
}

func (sv *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sv.srv.Shutdown(ctx) //nolint:errcheck // the drain bound closes what remains
	<-sv.serveErr
	sv.tr.CloseIdleConnections()
	sv.upTr.CloseIdleConnections()
}

// reply is one request's outcome as the client saw it.
type reply struct {
	body    string
	hit     bool
	elapsed time.Duration // X-Query-Elapsed: the daemon's execution time
	headers time.Time     // when the response headers arrived
	err     error
}

func (sv *served) query(text string) reply {
	resp, err := sv.client.Post(sv.base+"/query", "text/plain", strings.NewReader(text))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	r := reply{headers: time.Now(), hit: resp.Header.Get("X-Query-Cache") == "hit"}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{err: fmt.Errorf("read response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		return reply{err: fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
	r.body = string(body)
	if r.elapsed, err = time.ParseDuration(resp.Header.Get("X-Query-Elapsed")); err != nil {
		return reply{err: fmt.Errorf("X-Query-Elapsed: %w", err)}
	}
	return r
}

func (sv *served) put() error {
	req, err := http.NewRequest(http.MethodPut, sv.base+"/documents/"+docName, bytes.NewReader(sv.xml))
	if err != nil {
		return err
	}
	resp, err := sv.uploader.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// daemonStats is the part of GET /debug/stats the benchmark reads.
type daemonStats struct {
	Governor struct{ Shed, Downgrades int64 }
	Cache    struct {
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		ScopedDropped int64 `json:"scoped_dropped"`
	}
}

func (sv *served) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := sv.client.Get(sv.base + "/debug/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /debug/stats: %w", err)
	}
	return st, nil
}

// mixStats is what one open-loop window observed.
type mixStats struct {
	lat       samples         // reads, from due time to the last body byte
	dues      []time.Duration // each read's due time, beside lat
	perClass  map[string]samples
	put       samples
	attempted int
	failed    int
	problems  []string
	window    time.Duration

	lag        samples // how late the generator handed out each request
	backlogMax int     // reads due but not yet taken by a connection

	overheadHit, overheadMiss samples // client round trip minus X-Query-Elapsed
	hits, misses              int
}

// mixLagBound is the generator's own bound: a window where it handed
// out reads later than this did not offer the intended load and is not
// scored. A backlog of reads waiting for a connection is the daemon
// falling behind, not the generator; it is reported and shows in the
// latencies, which run from the due time.
const mixLagBound = 50 * time.Millisecond // at the 99th percentile

func (m *mixStats) valid() error {
	if p := m.lag.percentile(99); p > ms(mixLagBound) {
		return fmt.Errorf("generator lag p99 %.1f ms exceeds %v", p, mixLagBound)
	}
	return nil
}

// slices splits the reads of a window by due time into slices of at
// least mixSlice each, one document re-upload apiece: the latency
// percentiles are taken per slice and their median is reported, so a
// stall confined to one slice moves the figures little.
func (m *mixStats) slices(window time.Duration) []samples {
	n := max(int(window/mixSlice), 1)
	out := make([]samples, n)
	for i, d := range m.dues {
		k := min(int(d*time.Duration(n)/window), n-1)
		out[k] = append(out[k], m.lat[i])
	}
	return out
}

// runMix offers the scheduled requests open loop: each read is handed to
// the mixConns senders at its due time whether or not earlier ones have
// completed, and its latency runs from the due time, so a stall also
// charges the requests queued behind it. Uploads go out the same way on
// their own connection. Response bodies are checked against the oracle
// after their latency is taken. rec, when not nil, records each read's
// queue wait, round trip and daemon execution.
func runMix(sv *served, jobs []mixJob, orc oracle, rec *recorder) *mixStats {
	type due struct {
		job mixJob
		at  time.Time
	}
	st := &mixStats{perClass: map[string]samples{}}
	var mu sync.Mutex
	// Both queues are sized to the number of sends.
	reads, uploads := make(chan due, len(jobs)), make(chan due, len(jobs))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := range uploads {
			err := sv.put()
			done := time.Now()
			mu.Lock()
			st.attempted++
			if err != nil {
				st.fail("upload", err)
			} else {
				st.put = append(st.put, ms(done.Sub(d.at)))
			}
			mu.Unlock()
		}
	}()
	for c := 0; c < mixConns; c++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for d := range reads {
				sent := time.Now()
				r := sv.query(d.job.text)
				done := time.Now()
				if r.err == nil {
					r.err = orc.check(d.job.text, r.body, false, nil)
				}
				if rec != nil && r.err == nil {
					traceRequest(rec, track, d.job.class, d.at, sent, r, done)
				}
				mu.Lock()
				st.attempted++
				if r.err != nil {
					st.fail(d.job.class, r.err)
				} else {
					st.lat = append(st.lat, ms(done.Sub(d.at)))
					st.dues = append(st.dues, d.job.due)
					st.perClass[d.job.class] = append(st.perClass[d.job.class], ms(done.Sub(d.at)))
					over := ms(done.Sub(sent) - r.elapsed)
					if r.hit {
						st.hits++
						st.overheadHit = append(st.overheadHit, over)
					} else {
						st.misses++
						st.overheadMiss = append(st.overheadMiss, over)
					}
				}
				mu.Unlock()
			}
		}(c + 1)
	}
	start := time.Now()
	for _, j := range jobs {
		at := start.Add(j.due)
		pace(at)
		if j.put() {
			uploads <- due{job: j, at: at}
			continue
		}
		st.lag = append(st.lag, ms(time.Since(at)))
		st.backlogMax = max(st.backlogMax, len(reads))
		reads <- due{job: j, at: at}
	}
	close(reads)
	close(uploads)
	wg.Wait()
	st.window = time.Since(start)
	return st
}

// pace returns at t: it sleeps until shortly before t, then yields until
// t, since a plain sleep on a busy host overshoots by a large share of a
// millisecond-scale request.
func pace(t time.Time) {
	if wait := time.Until(t) - paceSpin; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const paceSpin = 500 * time.Microsecond

func (m *mixStats) fail(class string, err error) {
	m.failed++
	if len(m.problems) < 5 {
		m.problems = append(m.problems, fmt.Sprintf("%s: %v", class, err))
	}
}

// traceRequest records one read as a request span from its due time,
// tiled by its wait for a connection and its HTTP round trip; the
// daemon's execution time is placed inside the round trip, ending when
// the response headers arrived.
func traceRequest(rec *recorder, track int, class string, due, sent time.Time, r reply, done time.Time) {
	req, root, rt := rec.newID(), rec.newID(), rec.newID()
	rec.add(rec.newID(), root, req, track, "client", "queue", due, sent)
	rec.add(rt, root, req, track, "client", "http.roundtrip", sent, done)
	rec.add(rec.newID(), rt, req, track, "server", "execute", r.headers.Add(-r.elapsed), r.headers)
	rec.add(root, 0, req, track, "bench", "request "+class, due, done)
}

// replay executes every read of a schedule once, in order, on an engine
// built like the daemon's (governed, serial, compiled) but with
// statistics and spans on: the daemon takes neither hook, so this is how
// served-mix reports the static pipeline and the executor. Each text is
// compiled once, as the daemon's plan cache would.
func replay(xml []byte, jobs []mixJob, rec *recorder) (*layerSums, map[string]*exrquy.Query, error) {
	eng := exrquy.New(exrquy.WithGovernor(exrquy.NewGovernor(exrquy.GovernorConfig{})),
		exrquy.WithCollect(true), exrquy.WithTracer(rec))
	if err := eng.LoadDocument(docName, bytes.NewReader(xml)); err != nil {
		return nil, nil, fmt.Errorf("load corpus: %w", err)
	}
	plans := map[string]*exrquy.Query{}
	sums := &layerSums{}
	for _, j := range jobs {
		if j.put() {
			continue
		}
		end := rec.enter("bench", "request "+j.class)
		q := plans[j.text]
		if q == nil {
			c := rec.enter("bench", "exrquy.Compile")
			var err error
			q, err = eng.Compile(j.text)
			c()
			if err != nil {
				end()
				return nil, nil, fmt.Errorf("compile %s: %w", j.class, err)
			}
			plans[j.text] = q
		}
		x := rec.enter("bench", "exrquy.Execute")
		res, err := q.Execute()
		x()
		var xml string
		if err == nil {
			s := rec.enter("bench", "exrquy.XML")
			xml, err = res.XML()
			s()
		}
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("replay %s: %w", j.class, err)
		}
		sums.queries++
		sums.resultBytes += int64(len(xml))
		sums.addStats(res.Stats(), 1)
	}
	return sums, plans, nil
}
