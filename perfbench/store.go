package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"persona/internal/agd"
	"persona/internal/storage"
)

// Blob classes, by name prefix.
const (
	classInput   = "input"   // datasets the benchmark imported (align appends its results column here)
	classSpill   = "spill"   // single-node sort runs: .pipeline/<n>/tmp, jobs/<id>/spill
	classShuffle = "shuffle" // distributed runs, pieces and halos: cluster/<run>/tmp
	classOutput  = "output"  // pipeline output datasets: cluster/<run>/out, jobs/<id>/out
	classJournal = "journal" // the job server's write-ahead journal
	classResult  = "result"  // exported job results
)

var blobClasses = []string{classInput, classSpill, classShuffle, classOutput, classJournal, classResult}

func classOf(name string) string {
	switch {
	case strings.HasPrefix(name, ".jobs/"):
		return classJournal
	case strings.HasPrefix(name, ".pipeline/"):
		return classSpill
	case strings.HasPrefix(name, "jobs/"):
		switch {
		case strings.Contains(name, "/spill/"):
			return classSpill
		case strings.HasSuffix(name, "/result"):
			return classResult
		}
		return classOutput
	case strings.HasPrefix(name, "cluster/"):
		if strings.Contains(name, "/tmp/") {
			return classShuffle
		}
		return classOutput
	}
	return classInput
}

// tracedStore records a span for every call into the store it wraps. It is
// only the core of the wrapper: wrapStore adds exactly the optional
// interfaces the wrapped store has, so a traced run takes the same code
// path as an untraced one.
type tracedStore struct {
	inner agd.BlobStore
	tr    *tracer
	wg    sync.WaitGroup // goroutines observing async reads
}

// callStart is when and under which span and rep a store call began.
type callStart struct {
	at          time.Duration
	parent, rep int32
}

func (s *tracedStore) begin() callStart {
	return callStart{s.tr.now(), s.tr.ctx.Load(), s.tr.rep.Load()}
}

func (s *tracedStore) record(op, name string, c callStart, n int, err error) {
	s.tr.add(span{
		Parent: c.parent,
		Rep:    c.rep,
		Layer:  "storage",
		Name:   op + " " + name,
		Op:     op,
		Class:  classOf(name),
		Start:  c.at,
		End:    s.tr.now(),
		Bytes:  int64(n),
		// A missing blob is an answer (existence probes), not a failure.
		Err: err != nil && !errors.Is(err, agd.ErrNotFound),
	})
}

func (s *tracedStore) Get(name string) ([]byte, error) {
	c := s.begin()
	b, err := s.inner.Get(name)
	s.record("get", name, c, len(b), err)
	return b, err
}

func (s *tracedStore) Put(name string, data []byte) error {
	c := s.begin()
	err := s.inner.Put(name, data)
	s.record("put", name, c, len(data), err)
	return err
}

func (s *tracedStore) Delete(name string) error {
	c := s.begin()
	err := s.inner.Delete(name)
	s.record("delete", name, c, 0, err)
	return err
}

func (s *tracedStore) List(prefix string) ([]string, error) {
	c := s.begin()
	names, err := s.inner.List(prefix)
	s.record("list", prefix, c, 0, err)
	return names, err
}

// observe records an async read when its future resolves, without changing
// the future the caller receives.
func (s *tracedStore) observe(name string, c callStart, f *agd.Future) {
	select {
	case <-f.Done():
		b, err := f.Wait(context.Background())
		s.record("get", name, c, len(b), err)
		return
	default:
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-f.Done()
		b, err := f.Wait(context.Background())
		s.record("get", name, c, len(b), err)
	}()
}

// wait blocks until every observed async read has been recorded.
func (s *tracedStore) wait() { s.wg.Wait() }

// tracedAsync forwards agd.AsyncBlobStore.
type tracedAsync struct {
	s  *tracedStore
	as agd.AsyncBlobStore
}

func (a tracedAsync) GetAsync(name string) *agd.Future {
	c := a.s.begin()
	f := a.as.GetAsync(name)
	a.s.observe(name, c, f)
	return f
}

func (a tracedAsync) GetBatch(names []string) []*agd.Future {
	c := a.s.begin()
	futs := a.as.GetBatch(names)
	for i, f := range futs {
		a.s.observe(names[i], c, f)
	}
	return futs
}

// tracedRange forwards agd.RangeBlobStore.
type tracedRange struct {
	s  *tracedStore
	rs agd.RangeBlobStore
}

func (r tracedRange) GetRange(name string, off int64, n int) ([]byte, error) {
	c := r.s.begin()
	b, err := r.rs.GetRange(name, off, n)
	r.s.record("get", name, c, len(b), err)
	return b, err
}

func (r tracedRange) GetRanges(name string, ranges []agd.ByteRange) ([][]byte, error) {
	c := r.s.begin()
	bufs, err := r.rs.GetRanges(name, ranges)
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	r.s.record("get", name, c, n, err)
	return bufs, err
}

// resilient is what a Session looks for on a RetryStore: its retry/hedge
// counters and its measured read profile (which drives spill compression).
type resilient interface {
	RetryStats() storage.RetryStats
	ReadProfile() (time.Duration, float64, int)
}

// wrapStore returns inner wrapped in a tracedStore that implements the same
// optional interfaces as inner: agd.AsyncBlobStore, agd.RangeBlobStore and
// the RetryStore's reporting methods. Interface sets no store of this
// repository has are refused rather than silently narrowed.
func wrapStore(inner agd.BlobStore, tr *tracer) (agd.BlobStore, *tracedStore, error) {
	s := &tracedStore{inner: inner, tr: tr}
	as, isAsync := inner.(agd.AsyncBlobStore)
	rs, isRange := inner.(agd.RangeBlobStore)
	res, isRes := inner.(resilient)
	switch {
	case isAsync && isRange && !isRes: // MemStore, DirStore, LatencyStore
		return struct {
			*tracedStore
			tracedAsync
			tracedRange
		}{s, tracedAsync{s, as}, tracedRange{s, rs}}, s, nil
	case isAsync && !isRange && isRes: // RetryStore
		return struct {
			*tracedStore
			tracedAsync
			resilient
		}{s, tracedAsync{s, as}, res}, s, nil
	}
	return nil, nil, fmt.Errorf("wrap store %T: async=%v range=%v resilient=%v is not a supported interface set", inner, isAsync, isRange, isRes)
}
