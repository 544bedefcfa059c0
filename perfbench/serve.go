package main

// The serve workload: corrcompd (service.New(service.Config{})) on a
// loopback listener, driven as an open loop at a fixed rate over at
// most two connections. One request in four is a fresh 256x256 field
// (a cache miss); the rest resubmit one of the last few fresh fields (a
// cache hit, or a singleflight join while that field's miss still
// runs). Latency is timed from when each request was due.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"time"

	"lossycorr"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/service"
)

const (
	// serveRate is the offered load in requests per second, fixed so
	// that the analysis of the misses keeps about half of two cores
	// busy.
	serveRate = 28
	// serveConns is the client's connection limit (nproc).
	serveConns = 2
	// serveFreshEvery: one request in this many is a fresh field.
	serveFreshEvery = 4
	// serveRecent is how many of the latest fresh fields a resubmit
	// picks from.
	serveRecent = 4
	// serveEdge is the uploaded field's edge; crops come from base
	// fields of twice the edge.
	serveEdge = 256
	// serveBases is the number of base fields.
	serveBases = 4
	// serveDrain bounds the wait for requests still running after the
	// last one was due.
	serveDrain = 60 * time.Second
)

type serveRun struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string
	client *http.Client
	// bases are independent realizations that fresh fields are cropped
	// from in turn: crops of one field overlap and share its cost, so
	// a run over a single base would read that one realization's cost.
	bases []*field.Field
	rng   *rand.Rand
	used  map[[3]int]bool

	// fresh fields issued so far: payload and the library's statistics
	// (computed when checked).
	fields []*freshField
	recent []*freshField // the latest fresh fields, which resubmits pick from
	reqs   int           // requests issued over every phase
}

type freshField struct {
	at    [3]int // base index and crop origin
	body  []byte // the encoded crop while the field is recent, then nil
	stats core.Statistics
	err   error
	done  time.Time // when its first response arrived (zero if not yet)
	mu    sync.Mutex
}

func newServe(seed uint64, _ string) (runner, error) {
	var bases []*field.Field
	for k := 0; k < serveBases; k++ {
		b, err := gauss2D(seed, k, 2*serveEdge, 8)
		if err != nil {
			return nil, err
		}
		bases = append(bases, b)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveRun{
		srv:   service.New(service.Config{}),
		url:   "http://" + ln.Addr().String(),
		bases: bases,
		rng:   rand.New(rand.NewPCG(seed, 0x5e77e)),
		used:  map[[3]int]bool{},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *serveRun) close() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

// newFresh crops an unused 256x256 block of the next base field.
func (s *serveRun) newFresh() (*freshField, error) {
	span := 2*serveEdge - serveEdge + 1
	var at [3]int
	for {
		at = [3]int{len(s.fields) % serveBases, s.rng.IntN(span), s.rng.IntN(span)}
		if !s.used[at] {
			break
		}
	}
	s.used[at] = true
	var buf bytes.Buffer
	if err := s.crop(at).WriteBinary(&buf); err != nil {
		return nil, err
	}
	return &freshField{at: at, body: buf.Bytes()}, nil
}

func (s *serveRun) crop(at [3]int) *field.Field {
	return crop(s.bases[at[0]], at[1], at[2], serveEdge)
}

// request is one scheduled request and its outcome.
type request struct {
	field   *freshField
	body    []byte
	fresh   bool
	due     time.Time
	stolen  float64   // CPU steal summed over CPUs from when it was due to its response (ms)
	sentAt  float64   // steal from when it got a connection to its response (ms)
	issued  time.Time // handed to the client
	sent    time.Time // the client got a connection for it
	done    time.Time
	afterOK bool // sent after the field's first response arrived
	err     error
	env     struct {
		Cached    bool    `json:"cached"`
		ElapsedMs float64 `json:"elapsedMs"`
		Result    struct {
			Stats core.Statistics `json:"stats"`
		} `json:"result"`
	}
}

// serveStats is what a serve phase hands to layerMetrics.
type serveStats struct {
	reqs               []*request
	before, after      service.StatsSnapshot
	fresh, hits, joins int
	hit, miss, edge    []float64
	service            []float64 // every request from connection to response, net of steal
	hitService         []float64 // the hits among them
	execHit, execMiss  []float64
	late               []float64
}

func (s *serveRun) stats() (service.StatsSnapshot, error) {
	var st service.StatsSnapshot
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (s *serveRun) measure(d time.Duration, tr *tracer) (*phase, error) {
	before, err := s.stats()
	if err != nil {
		return nil, err
	}
	n := int(d.Seconds() * serveRate)
	if n < serveFreshEvery {
		n = serveFreshEvery
	}
	interval := time.Second / serveRate
	reqs := make([]*request, n)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now().Add(50 * time.Millisecond)
	late := make([]float64, 0, n)
	freshAt := 0
	for k := 0; k < n; k++ {
		// One fresh request per block of serveFreshEvery, at a seeded
		// position; the very first request is always fresh.
		if (s.reqs+k)%serveFreshEvery == 0 {
			freshAt = s.rng.IntN(serveFreshEvery)
			if s.reqs+k == 0 {
				freshAt = 0
			}
		}
		r := &request{due: start.Add(time.Duration(k) * interval)}
		if (s.reqs+k)%serveFreshEvery == freshAt {
			f, err := s.newFresh()
			if err != nil {
				return nil, err
			}
			s.fields = append(s.fields, f)
			s.recent = append(s.recent, f)
			if len(s.recent) > serveRecent {
				// No later request resubmits it: drop the payload so the
				// client's memory does not grow with the run (requests
				// already issued hold their own reference).
				s.recent[0].body = nil
				s.recent = s.recent[1:]
			}
			r.field, r.fresh = f, true
		} else {
			r.field = s.recent[s.rng.IntN(len(s.recent))]
		}
		r.body = r.field.body
		reqs[k] = r
		time.Sleep(time.Until(r.due))
		late = append(late, ms(time.Since(r.due)))
		r.stolen = stealMs()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.send(r)
		}()
	}
	s.reqs += n
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(serveDrain):
		return nil, fmt.Errorf("serve: requests still running %v after the last was due", serveDrain)
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	busy := float64(cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	after, err := s.stats()
	if err != nil {
		return nil, err
	}

	st := &serveStats{reqs: reqs, before: before, after: after, late: late}
	p := &phase{wall: wall, cpu: cpu, extra: st}
	for k, r := range reqs {
		if tr != nil {
			// The request span runs from when it was due; its children
			// are the generator's lateness, the wait for a connection,
			// and the server's execute time as the envelope reports it
			// (placed to end at the response).
			tr.add(span{Name: "request", Op: k, Start: tr.ms(r.due), End: tr.ms(r.done)})
			tr.add(span{Name: "client.late", Op: k, Parent: "request", Start: tr.ms(r.due), End: tr.ms(r.issued)})
			if r.err == nil {
				tr.add(span{Name: "client.conn_wait", Op: k, Parent: "request", Start: tr.ms(r.issued), End: tr.ms(r.sent)})
				tr.add(span{Name: "service.execute", Op: k, Parent: "request",
					Start: tr.ms(r.done) - r.env.ElapsedMs, End: tr.ms(r.done)})
			}
		}
		err := s.check(r)
		p.record(ms(r.done.Sub(r.due)), r.stolen, err)
		lat := p.lat[len(p.lat)-1]
		if err != nil {
			st.service = append(st.service, math.Inf(1))
			continue
		}
		svc := max(ms(r.done.Sub(r.sent))-r.sentAt/float64(numCPU), 0)
		st.service = append(st.service, svc)
		switch {
		case r.fresh:
			st.fresh++
			st.miss = append(st.miss, lat)
			st.execMiss = append(st.execMiss, r.env.ElapsedMs)
		case r.env.Cached:
			st.hits++
			st.hit = append(st.hit, lat)
			st.hitService = append(st.hitService, svc)
			st.execHit = append(st.execHit, r.env.ElapsedMs)
			st.edge = append(st.edge, ms(r.done.Sub(r.sent))-r.env.ElapsedMs)
		default:
			st.joins++
		}
	}
	p.notes = append(p.notes,
		fmt.Sprintf("%d requests at %d/s over %d connections: %d fresh, %d hits, %d joins, %d failed",
			n, serveRate, serveConns, st.fresh, st.hits, st.joins, p.failed),
		fmt.Sprintf("from due: hit p50 %.3f ms, hit p90 %.3f ms, miss p50 %.3f ms, all p90 %.3f ms",
			quantile(st.hit, 0.5), quantile(st.hit, 0.9), quantile(st.miss, 0.5), p.pct(0.9)),
		fmt.Sprintf("from connection to response: hit p50 %.3f ms, all p90 %.3f ms",
			quantile(st.hitService, 0.5), quantile(st.service, 0.9)),
		fmt.Sprintf("cache hit ratio %.3f (resubmits intended: %.3f)",
			float64(after.CacheHits-before.CacheHits)/float64(n), 1-1.0/serveFreshEvery),
		fmt.Sprintf("cores busy %.1f%% (process CPU over wall x GOMAXPROCS)", 100*busy),
		fmt.Sprintf("generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms",
			quantile(late, 0.5), quantile(late, 0.99), maxOf(late)))
	p.head, p.tail = st.hitService, st.service
	return p, nil
}

// send posts r's field and records the outcome.
func (s *serveRun) send(r *request) {
	f := r.field
	f.mu.Lock()
	r.afterOK = !f.done.IsZero()
	f.mu.Unlock()
	r.issued = time.Now()
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/analyze", bytes.NewReader(r.body))
	if err != nil {
		r.done, r.err, r.stolen = time.Now(), err, 0
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { r.sent, r.sentAt = time.Now(), stealMs() },
	}))
	resp, err := s.client.Do(req)
	if err != nil {
		r.done, r.err, r.stolen = time.Now(), err, 0
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	now := stealMs()
	r.stolen, r.sentAt = now-r.stolen, now-r.sentAt
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		r.err = json.Unmarshal(body, &r.env)
	}
	if r.err == nil {
		f.mu.Lock()
		if f.done.IsZero() || r.done.Before(f.done) {
			f.done = r.done
		}
		f.mu.Unlock()
	}
}

// check verifies one response: it carries the library's statistics for
// the same bytes, and its cached flag matches its class (a fresh field
// is a miss; a resubmit sent after the field's first response arrived
// is a hit; one sent earlier may be a join or a hit).
func (s *serveRun) check(r *request) error {
	if r.err != nil {
		return r.err
	}
	f := r.field
	if f.stats == nil && f.err == nil {
		// The payload is re-encoded from the crop (the client dropped
		// it) and parsed back, so the library sees the uploaded bytes.
		var buf bytes.Buffer
		var fld *field.Field
		if f.err = s.crop(f.at).WriteBinary(&buf); f.err == nil {
			if fld, f.err = lossycorr.ReadField(&buf); f.err == nil {
				f.stats, f.err = lossycorr.AnalyzeField(fld, lossycorr.AnalysisOptions{})
			}
		}
	}
	if f.err != nil {
		return fmt.Errorf("library analysis of the uploaded bytes: %v", f.err)
	}
	if _, err := checkStats(r.env.Result.Stats, allStats...); err != nil {
		return err
	}
	if got, want := statsFingerprint(r.env.Result.Stats), statsFingerprint(f.stats); got != want {
		return fmt.Errorf("response statistics %s differ from the library's %s", got, want)
	}
	if r.fresh && r.env.Cached {
		return fmt.Errorf("a fresh field was reported cached")
	}
	if !r.fresh && r.afterOK && !r.env.Cached {
		return fmt.Errorf("a resubmit sent after its field's first response was not a cache hit")
	}
	return nil
}

func (s *serveRun) layerMetrics(p *phase, m map[string]metric) {
	st := p.extra.(*serveStats)
	n := float64(len(st.reqs))
	m["service.execute_ms.hit"] = metric{quantile0(st.execHit, 0.5), "ms"}
	m["service.edge_ms.hit"] = metric{quantile0(st.edge, 0.5), "ms"}
	m["service.execute_ms.miss"] = metric{quantile0(st.execMiss, 0.5), "ms"}
	m["service.cache_hit_ratio"] = metric{float64(st.after.CacheHits-st.before.CacheHits) / n, "ratio"}
	m["service.flights_joined"] = metric{float64(st.after.FlightsJoined - st.before.FlightsJoined), "count"}
	runsPerMiss := 0.0
	if st.fresh > 0 {
		runsPerMiss = float64(st.after.AnalyzeRuns-st.before.AnalyzeRuns) / float64(st.fresh)
	}
	m["service.analyze_runs_per_miss"] = metric{runsPerMiss, "ratio"}
	m["service.pool_peak_mb"] = metric{float64(st.after.PoolPeakBytes) / (1 << 20), "MB"}
	m["service.hit_p50_ms"] = metric{quantile0(st.hit, 0.5), "ms"}
	m["service.hit_p90_ms"] = metric{quantile0(st.hit, 0.9), "ms"}
	m["service.miss_p50_ms"] = metric{quantile0(st.miss, 0.5), "ms"}
	m["service.gen_late_max_ms"] = metric{maxOf(st.late), "ms"}
}

// serveLayerKeys are the serve-only per-layer metrics, reported as 0 by
// the other workloads.
var serveLayerKeys = map[string]string{
	"service.execute_ms.hit":        "ms",
	"service.edge_ms.hit":           "ms",
	"service.execute_ms.miss":       "ms",
	"service.cache_hit_ratio":       "ratio",
	"service.flights_joined":        "count",
	"service.analyze_runs_per_miss": "ratio",
	"service.pool_peak_mb":          "MB",
	"service.hit_p50_ms":            "ms",
	"service.hit_p90_ms":            "ms",
	"service.miss_p50_ms":           "ms",
	"service.gen_late_max_ms":       "ms",
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}
