package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval: a rep, a public call into a layer, a wrapped
// store call or a replayed kernel call. Store calls carry their blob class,
// operation and payload size.
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent,omitempty"`
	Rep    int32         `json:"rep"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Op     string        `json:"op,omitempty"`
	Class  string        `json:"class,omitempty"`
	Bytes  int64         `json:"bytes,omitempty"`
	Err    bool          `json:"err,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay for no spans at all.
type tracer struct {
	origin time.Time
	reps   atomic.Int32 // reps started so far
	rep    atomic.Int32 // rep id new spans carry; 0 outside reps
	ctx    atomic.Int32 // span new store-call spans are parented to

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int32, layer, name string) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep.Load(), Layer: layer, Name: name, Start: start, End: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a completed span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = int32(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs f inside a span that is also the parent of every store call made
// meanwhile, and returns the span's id. Only sequential code uses it;
// concurrent callers pass explicit parents to begin.
func (t *tracer) call(layer, name string, f func() error) (int32, error) {
	if t == nil {
		return 0, f()
	}
	prev := t.ctx.Load()
	id := t.begin(prev, layer, name)
	t.ctx.Store(id)
	err := f()
	t.ctx.Store(prev)
	t.end(id)
	return id, err
}

// startRep opens the span of one rep; every span until the next startRep
// carries its rep id.
func (t *tracer) startRep(name string) int32 {
	if t == nil {
		return 0
	}
	t.rep.Store(t.reps.Add(1))
	id := t.begin(0, "bench", name)
	t.ctx.Store(id)
	return id
}

// endRep closes a rep's span; spans recorded until the next rep (isolated
// replays) carry rep id 0.
func (t *tracer) endRep(id int32) {
	if t == nil {
		return
	}
	t.ctx.Store(0)
	t.rep.Store(0)
	t.end(id)
}

// discard drops every span recorded so far.
func (t *tracer) discard() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover, separately for spans inside reps and
// for the isolated replays outside them.
func selfTimes(spans []span) (inReps, replays map[string]time.Duration) {
	children := make(map[int32][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	inReps, replays = make(map[string]time.Duration), make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, ci := range children[s.ID] {
			c := spans[ci]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, curA, curB time.Duration
		for i, v := range ivs {
			switch {
			case i == 0:
				curA, curB = v.a, v.b
			case v.a > curB:
				covered += curB - curA
				curA, curB = v.a, v.b
			case v.b > curB:
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out := inReps
		if s.Rep == 0 {
			out = replays
		}
		out[s.Layer] += s.End - s.Start - covered
	}
	return inReps, replays
}

// writeSpans writes the spans as JSON lines under dir and returns the path.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
