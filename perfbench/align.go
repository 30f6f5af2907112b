package main

import (
	"context"
	"fmt"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/align/snap"
)

// alignCheckReads is the size of the fixed sample of reads whose results
// must equal a serial reference aligner's.
const alignCheckReads = 256

// runAlign is the Table 1 job: persona.Align appends a results column to an
// unaligned dataset, on a fresh copy of the input store per rep.
func runAlign(ctx context.Context, cfg runConfig, rep *report) error {
	sz := cfg.sizes
	type state struct {
		in    *input
		store persona.Store
		idx   *persona.Index
	}
	setups := sz.setups
	if cfg.trace {
		setups = 1
	}
	st, setupS, err := setupMedian(setups, func() (*state, error) {
		in, err := simulate(sz.alignGenome, sz.alignReads, 0, cfg.seed)
		if err != nil {
			return nil, err
		}
		idx, err := persona.BuildIndex(in.genome)
		if err != nil {
			return nil, fmt.Errorf("build index: %w", err)
		}
		store := persona.NewMemStore()
		if err := importReads(ctx, store, "in", in, in.reads, sz.alignChunk); err != nil {
			return nil, err
		}
		return &state{in, store, idx}, nil
	})
	if err != nil {
		return err
	}
	rep.note("inputs: genome=%d bp, %d reads x %d bp, %d reads/chunk", sz.alignGenome, len(st.in.reads), readLen, sz.alignChunk)

	// The reference: a serial aligner over a fixed sample of reads.
	stride := max(1, len(st.in.reads)/alignCheckReads)
	ref := snap.NewAligner(st.idx, snap.Config{})
	want := make(map[int]agd.Result)
	for i := 0; i < len(st.in.reads); i += stride {
		want[i] = ref.AlignRead(st.in.reads[i].Bases)
	}

	var last []agd.Result
	var stats snap.Stats
	var readsPerS []float64
	align := func(tr *tracer) (time.Duration, error) {
		store, err := copyStore(st.store)
		if err != nil {
			return 0, err
		}
		var ts *tracedStore
		if tr != nil {
			if store, ts, err = wrapStore(store, tr); err != nil {
				return 0, err
			}
		}
		settle()
		repID := tr.startRep("align rep")
		t0 := time.Now()
		var ar *persona.AlignReport
		_, err = tr.call("align", "persona.Align", func() error {
			var err error
			ar, _, err = persona.Align(ctx, store, "in", st.idx, persona.AlignOptions{})
			return err
		})
		d := time.Since(t0)
		tr.endRep(repID)
		if ts != nil {
			ts.wait()
		}
		if err != nil {
			rep.op(false, fmt.Sprintf("align: %v", err))
			return d, nil
		}
		stats = ar.Stats
		readsPerS = append(readsPerS, float64(ar.Reads)/d.Seconds())
		ds, err := persona.OpenDataset(store, "in")
		if err == nil {
			last, err = ds.ReadAllResults()
		}
		ok := err == nil && len(last) == len(st.in.reads)
		for i, w := range want {
			if !ok {
				break
			}
			ok = last[i] == w
		}
		rep.op(ok, "align: results differ from the serial reference aligner")
		return d, nil
	}

	if !cfg.trace {
		times, err := repeat(cfg.measure, func() (time.Duration, error) { return align(nil) })
		if err != nil {
			return err
		}
		acc := 0.0
		for i, res := range last {
			if placed(st.in.origins[st.in.reads[i].Meta], res.Location, res.IsReverse()) && !res.IsUnmapped() {
				acc++
			}
		}
		if len(last) > 0 {
			acc /= float64(len(last))
		}
		batchE2E(rep, times, readsPerS, setupS, acc)
		rep.note("align_mbases_per_s: %.4f Mbases/s (median of %d reps); align_accuracy: %.5f", median(readsPerS)*readLen/1e6, len(times), acc)
		return nil
	}

	initLayers(rep)
	untraced, err := repeat(cfg.measure/2, func() (time.Duration, error) { return align(nil) })
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := repeat(cfg.measure/2, func() (time.Duration, error) { return align(tr) })
	if err != nil {
		return err
	}
	overhead(rep, untraced, traced)
	alignCounts(rep, stats)
	spans := tr.snapshot()
	storageLayers(rep, spans, len(traced))

	// Isolated replays: the same job as a one-stage Session pipeline (for
	// its stage report), then the codec and aligner kernels.
	store, err := copyStore(st.store)
	if err != nil {
		return err
	}
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	var pr *persona.PipelineReport
	_, err = tr.call("dataflow", "Pipeline.Run read→align→write", func() error {
		var err error
		pr, err = sess.Read("in").Align(st.idx, persona.AlignOptions{}).Write("aligned").Run(ctx)
		return err
	})
	rep.op(err == nil, fmt.Sprintf("align pipeline replay: %v", err))
	if err == nil {
		stageLayers(rep, []*persona.PipelineReport{pr})
	}
	if err := replayCodec(rep, tr, store, "aligned"); err != nil {
		return err
	}
	replayAlign(rep, tr, st.idx, st.in.reads)
	return finishTrace(rep, cfg, tr, len(traced))
}

// finishTrace computes the span self times and writes the spans out.
func finishTrace(rep *report, cfg runConfig, tr *tracer, reps int) error {
	spans := tr.snapshot()
	spanLayerTimes(rep, spans, reps)
	path, err := writeSpans(cfg.outDir, rep.workload, cfg.seed, spans)
	if err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(spans), path)
	return nil
}
