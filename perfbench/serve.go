package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"persona"
	"persona/internal/jobs"
	"persona/internal/storage"
)

// servePoll is how often a client polls a job's status.
const servePoll = 10 * time.Millisecond

// serveJobTimeout fails a job that has not finished long after any sane
// latency, so a stuck server fails the run instead of hanging it.
const serveJobTimeout = 30 * time.Second

// serveSpecs is the job mix: two align+sort+markdup→BAM jobs for every
// metadata-sort→FASTQ job.
var serveSpecs = []jobs.Spec{
	{Align: true, Sort: "location", MarkDup: true, Format: "bam"},
	{Align: true, Sort: "location", MarkDup: true, Format: "bam"},
	{Sort: "metadata", Format: "fastq"},
}

// server is persona-server in-process: a jobs.Manager on one warm Session,
// served over a loopback listener and driven by two jobs.Clients.
type server struct {
	in       *input
	datasets []string
	want     map[string]string // dataset + "/" + format → result digest
	accuracy float64           // of the reference BAMs, which every BAM job must match
	idx      *persona.Index
	sess     *persona.Session
	retry    *storage.RetryStore
	mgr      *jobs.Manager
	http     *http.Server
	served   chan error
	base     *http.Transport
	api      *apiTransport // nil when untraced
	clients  [2]*jobs.Client
	ts       *tracedStore // nil when untraced
}

// startServer builds the datasets, the store stack, the reference results
// and the running server. With a tracer, the store and the HTTP transport
// are wrapped.
func startServer(ctx context.Context, sz sizes, seed int64, tr *tracer) (*server, error) {
	in, err := simulate(sz.serveGenome, sz.serveReads*sz.serveDatasets, 0.15, seed)
	if err != nil {
		return nil, err
	}
	mem := persona.NewMemStore()
	s := &server{in: in, want: make(map[string]string)}
	for i := 0; i < sz.serveDatasets; i++ {
		name := fmt.Sprintf("ds%d", i)
		part := in.reads[i*sz.serveReads : (i+1)*sz.serveReads]
		if err := importReads(ctx, mem, name, in, part, sz.serveChunk); err != nil {
			return nil, err
		}
		s.datasets = append(s.datasets, name)
	}
	s.retry = persona.NewRetryStore(storage.WithLatency(mem, sz.serveLatency), persona.RetryPolicy{})
	var store persona.Store = s.retry
	if tr != nil {
		if store, s.ts, err = wrapStore(store, tr); err != nil {
			return nil, err
		}
	}
	s.sess = persona.NewSession(store, persona.SessionOptions{})
	if s.idx, err = s.sess.Index(in.genome); err != nil {
		s.sess.Close()
		return nil, fmt.Errorf("build index: %w", err)
	}
	// Reference results: each spec run directly through the Session once.
	placedReads, bamReads := 0.0, 0
	for _, ds := range s.datasets {
		for _, sp := range serveSpecs {
			if _, done := s.want[ds+"/"+sp.Format]; done {
				continue
			}
			var buf bytes.Buffer
			p := s.sess.Read(ds)
			if sp.Align {
				p.Align(s.idx, persona.AlignOptions{}).Sort(persona.ByLocation).MarkDuplicates().ExportBAM(&buf)
			} else {
				p.Sort(persona.ByMetadata).ExportFASTQ(&buf)
			}
			if _, err := p.Run(ctx); err != nil {
				s.sess.Close()
				return nil, fmt.Errorf("reference %s %s: %w", ds, sp.Format, err)
			}
			s.want[ds+"/"+sp.Format] = digest(buf.Bytes())
			if sp.Align {
				acc, n, err := bamAccuracy(buf.Bytes(), in)
				if err != nil {
					s.sess.Close()
					return nil, err
				}
				placedReads += acc * float64(n)
				bamReads += n
			}
		}
	}
	s.accuracy = placedReads / float64(bamReads)
	s.mgr, err = jobs.NewManager(jobs.Config{Store: store, Session: s.sess, Reference: in.genome, Workers: 2})
	if err == nil {
		_, err = s.mgr.Recover()
	}
	if err != nil {
		s.sess.Close()
		return nil, fmt.Errorf("start manager: %w", err)
	}
	s.mgr.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Kill()
		s.sess.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.http = &http.Server{Handler: s.mgr.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	s.base = &http.Transport{MaxIdleConnsPerHost: 64}
	var rt http.RoundTripper = s.base
	if tr != nil {
		s.api = &apiTransport{base: s.base, tr: tr}
		rt = s.api
	}
	for i := range s.clients {
		s.clients[i] = &jobs.Client{Base: "http://" + ln.Addr().String(), Tenant: fmt.Sprintf("tenant%d", i), HTTP: &http.Client{Transport: rt}}
	}
	return s, nil
}

// close drains the manager, stops the HTTP server and waits for it.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.mgr.Drain(ctx) // the store is discarded with the server
	_ = s.http.Shutdown(ctx)
	<-s.served
	s.base.CloseIdleConnections()
	if s.ts != nil {
		s.ts.wait()
	}
	s.sess.Close()
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	// latency runs from the job's due time (open loop) or submission
	// (closed loop) to the FinishedAt the server reports, which leaves the
	// clients' status polling interval out of it.
	latency   time.Duration
	ok        bool
	queueWait time.Duration
	run       time.Duration
}

// job submits one spec and waits until it is done, then checks its result.
func (s *server) job(ctx context.Context, c *jobs.Client, spec jobs.Spec, due time.Time, rep *report, mu *sync.Mutex) jobOutcome {
	ctx, cancel := context.WithTimeout(ctx, serveJobTimeout)
	defer cancel()
	var out jobOutcome
	fail := func(what string) jobOutcome {
		mu.Lock()
		rep.op(false, what)
		mu.Unlock()
		return out
	}
	st, err := c.Submit(ctx, spec)
	if err != nil { // a rejection (HTTP 429) fails the job too
		return fail(fmt.Sprintf("serve: submit: %v", err))
	}
	final, err := c.Wait(ctx, st.ID, servePoll)
	if err != nil {
		return fail(fmt.Sprintf("serve: wait %s: %v", st.ID, err))
	}
	if final.State != jobs.StateDone {
		return fail(fmt.Sprintf("serve: job %s ended %s: %s", st.ID, final.State, final.Error))
	}
	out.latency = final.FinishedAt.Sub(due)
	out.queueWait = final.StartedAt.Sub(final.SubmittedAt)
	out.run = final.FinishedAt.Sub(final.StartedAt)
	data, _, err := c.Result(ctx, st.ID)
	want := s.want[spec.Dataset+"/"+spec.Format]
	out.ok = err == nil && digest(data) == want
	mu.Lock()
	rep.op(out.ok, fmt.Sprintf("serve: job %s (%s %s) result differs from the direct Session run (err %v)", st.ID, spec.Dataset, spec.Format, err))
	mu.Unlock()
	return out
}

// mix deals the job mix: every spec over every dataset once per round, in
// a seeded order, so each phase runs the mix in its exact proportions.
type mix struct {
	s    *server
	rng  *rand.Rand
	deck []jobs.Spec
}

func (s *server) mix(seed int64) *mix { return &mix{s: s, rng: rand.New(rand.NewSource(seed))} }

func (m *mix) next() jobs.Spec {
	if len(m.deck) == 0 {
		for _, ds := range m.s.datasets {
			for _, sp := range serveSpecs {
				sp.Dataset = ds
				m.deck = append(m.deck, sp)
			}
		}
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	sp := m.deck[len(m.deck)-1]
	m.deck = m.deck[:len(m.deck)-1]
	return sp
}

// closedLoop runs two clients that each submit their next job only after
// the previous one completed, for d, and returns the completed jobs.
func (s *server) closedLoop(ctx context.Context, d time.Duration, seed int64, rep *report) (done []jobOutcome, elapsed time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobMix := s.mix(seed + int64(i))
			for time.Now().Before(deadline) {
				o := s.job(ctx, c, jobMix.next(), time.Now(), rep, &mu)
				if o.ok {
					mu.Lock()
					done = append(done, o)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return done, time.Since(t0)
}

// openLoop submits n jobs at Poisson arrivals of the given rate, regardless
// of completions; each job's latency runs from its due time. It returns the
// completed jobs and how late the generator submitted each job.
func (s *server) openLoop(ctx context.Context, rate float64, n int, seed int64, rep *report) (done []jobOutcome, lag []float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(seed))
	jobMix := s.mix(seed + 2)
	due := time.Now()
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		spec := jobMix.next()
		time.Sleep(time.Until(due))
		lag = append(lag, ms(time.Since(due)))
		wg.Add(1)
		go func(c *jobs.Client, due time.Time) {
			defer wg.Done()
			o := s.job(ctx, c, spec, due, rep, &mu)
			if o.ok {
				mu.Lock()
				done = append(done, o)
				mu.Unlock()
			}
		}(s.clients[i%2], due)
	}
	wg.Wait()
	return done, lag
}

// apiTransport times every HTTP round trip of the jobs clients.
type apiTransport struct {
	base http.RoundTripper
	tr   *tracer
	mu   sync.Mutex
	ms   []float64
}

func (t *apiTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin(0, "jobs", "HTTP "+req.Method+" "+req.URL.Path)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0)
	t.tr.end(id)
	t.mu.Lock()
	t.ms = append(t.ms, ms(d))
	t.mu.Unlock()
	return resp, err
}

func latencies(js []jobOutcome, f func(jobOutcome) time.Duration) []float64 {
	out := make([]float64, len(js))
	for i, j := range js {
		out[i] = ms(f(j))
	}
	return out
}

// runServe measures the job server: a closed-loop capacity phase with two
// clients, then an open-loop phase at a fixed Poisson arrival rate.
func runServe(ctx context.Context, cfg runConfig, rep *report) error {
	sz := cfg.sizes
	closedFor := cfg.measure / 5
	openJobs := int(math.Ceil(sz.serveRate * (cfg.measure - closedFor).Seconds()))
	rep.note("inputs: genome=%d bp, %d datasets x %d reads x %d bp (15%% duplicates), %d reads/chunk, %s store latency",
		sz.serveGenome, sz.serveDatasets, sz.serveReads, readLen, sz.serveChunk, sz.serveLatency)
	rep.note("load: closed loop 2 clients for %s, then open loop %d jobs at %.1f jobs/s (Poisson)", closedFor, openJobs, sz.serveRate)

	if !cfg.trace {
		s, setupS, err := setupMedian(sz.setups, func() (*server, error) { return startServer(ctx, sz, cfg.seed, nil) })
		if err != nil {
			return err
		}
		defer s.close()
		closed, elapsed := s.closedLoop(ctx, closedFor, cfg.seed, rep)
		jobsPerS := float64(len(closed)) / elapsed.Seconds()
		open, lag := s.openLoop(ctx, sz.serveRate, openJobs, cfg.seed, rep)
		lat := latencies(open, func(j jobOutcome) time.Duration { return j.latency })
		t, pct := tail(lat)
		rep.setE2E("setup_s", setupS, "s")
		rep.setE2E("reads_per_s", jobsPerS*float64(sz.serveReads), "reads/s")
		rep.setE2E("p50_ms", median(lat), "ms")
		rep.setE2E("tail_ms", t, "ms")
		rep.setE2E("accuracy", s.accuracy, "ratio")
		rep.setE2E("peak_rss_mb", peakRSSMB(), "MB")
		rep.note("jobs_per_s: %.3f (closed loop, %d jobs in %s)", jobsPerS, len(closed), elapsed.Round(time.Millisecond))
		rep.note("job_p50_ms: %.2f, job_%s_ms: %.2f (open loop, %d of %d jobs completed); generator lag median %.3f ms, max %.3f ms",
			median(lat), pct, t, len(open), openJobs, median(lag), quantile(lag, 1))
		return nil
	}

	initLayers(rep)
	// Untraced baseline for the tracing overhead, on its own server.
	base, err := startServer(ctx, sz, cfg.seed, nil)
	if err != nil {
		return err
	}
	closed0, _ := base.closedLoop(ctx, closedFor/2, cfg.seed, rep)
	base.close()

	tr := newTracer()
	s, err := startServer(ctx, sz, cfg.seed, tr)
	if err != nil {
		return err
	}
	defer s.close()
	tr.discard() // set-up's store calls are not part of the measurement
	cache0, _ := s.sess.CacheStats()
	retry0 := s.retry.RetryStats()
	tr.rep.Store(1)
	closed1, _ := s.closedLoop(ctx, closedFor/2, cfg.seed, rep)
	open, lag := s.openLoop(ctx, sz.serveRate, openJobs/2, cfg.seed, rep)
	tr.rep.Store(0)
	s.ts.wait()
	cache1, _ := s.sess.CacheStats()
	retry := s.retry.RetryStats().Delta(retry0)

	all := append(append([]jobOutcome(nil), closed1...), open...)
	overhead(rep, latencies(closed0, func(j jobOutcome) time.Duration { return j.latency }),
		latencies(closed1, func(j jobOutcome) time.Duration { return j.latency }))
	spans := tr.snapshot()
	storageLayers(rep, spans, len(all))
	cacheLayers(rep, cache0, cache1, len(all))
	perJob := float64(max(1, len(all)))
	rep.set("storage.retries", float64(retry.Retries)/perJob)
	rep.set("storage.hedges", float64(retry.Hedges)/perJob)
	rep.set("jobs.queue_wait_ms", median(latencies(all, func(j jobOutcome) time.Duration { return j.queueWait })))
	rep.set("jobs.run_ms", median(latencies(all, func(j jobOutcome) time.Duration { return j.run })))
	rejected := 0
	for _, ts := range s.mgr.Stats().Tenants {
		rejected += int(ts.Rejected)
	}
	rep.set("jobs.rejected", float64(rejected))
	s.api.mu.Lock()
	rep.set("api.requests", float64(len(s.api.ms))/perJob)
	rep.set("api.ms", median(s.api.ms))
	s.api.mu.Unlock()
	rep.set("serve.gen_lag_ms", median(lag))

	if err := replayCodec(rep, tr, s.retry, s.datasets[0]); err != nil {
		return err
	}
	replayAlign(rep, tr, s.idx, s.in.reads)
	return finishTrace(rep, cfg, tr, len(all))
}
