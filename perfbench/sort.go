package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"persona"
)

// sortGraph is the sort workload's graph: a pre-aligned dataset through
// sort, duplicate marking, a duplicate-dropping filter and BAM export.
func sortGraph(sess *persona.Session, sink io.Writer) *persona.Pipeline {
	return sess.Read("in").
		Sort(persona.ByLocation).
		MarkDuplicates().
		Filter(persona.FilterDropDuplicates()).
		ExportBAM(sink)
}

// runSort runs sortGraph on a fresh session per rep, so every chunk-cache
// lookup misses; the input is aligned during set-up.
func runSort(ctx context.Context, cfg runConfig, rep *report) error {
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
		in, err := simulate(sz.sortGenome, sz.sortReads, 0.15, cfg.seed)
		if err != nil {
			return nil, err
		}
		idx, err := persona.BuildIndex(in.genome)
		if err != nil {
			return nil, fmt.Errorf("build index: %w", err)
		}
		store := persona.NewMemStore()
		if err := importReads(ctx, store, "in", in, in.reads, sz.sortChunk); err != nil {
			return nil, err
		}
		if _, _, err := persona.Align(ctx, store, "in", idx, persona.AlignOptions{}); err != nil {
			return nil, fmt.Errorf("align input: %w", err)
		}
		return &state{in, store, idx}, nil
	})
	if err != nil {
		return err
	}
	rep.note("inputs: genome=%d bp, %d reads x %d bp (15%% duplicates), %d reads/chunk, aligned at set-up",
		sz.sortGenome, len(st.in.reads), readLen, sz.sortChunk)

	want := cfg.expect
	var first *pipelineRun
	var reports []*persona.PipelineReport
	var readsPerS []float64
	run := func(tr *tracer) (time.Duration, error) {
		store := st.store
		var ts *tracedStore
		if tr != nil {
			var err error
			if store, ts, err = wrapStore(store, tr); err != nil {
				return 0, err
			}
		}
		repID := tr.startRep("sort rep")
		res, err := runPipeline(ctx, store, tr, "dataflow", "Pipeline.Run sort→markdup→filter→bam", sortGraph)
		tr.endRep(repID)
		if ts != nil {
			ts.wait()
		}
		if err != nil {
			rep.op(false, fmt.Sprintf("sort: %v", err))
			return 0, nil
		}
		if first == nil {
			first = res
		}
		reports = append(reports, res.report)
		d := digest(res.out)
		if want == "" {
			want = d
		}
		rep.op(d == want, fmt.Sprintf("sort: BAM digest %s differs from the first rep's %s", d, want))
		readsPerS = append(readsPerS, float64(len(st.in.reads))/res.elapsed.Seconds())
		return res.elapsed, nil
	}

	if !cfg.trace {
		times, err := repeat(cfg.measure, func() (time.Duration, error) { return run(nil) })
		if err != nil {
			return err
		}
		acc := 0.0
		if first != nil {
			if acc, _, err = bamAccuracy(first.out, st.in); err != nil {
				return err
			}
			rep.note("BAM %d bytes, digest %s", len(first.out), want)
		}
		batchE2E(rep, times, readsPerS, setupS, acc)
		rep.note("sort_reads_per_s: %.1f reads/s (median of %d reps)", median(readsPerS), len(readsPerS))
		return nil
	}

	initLayers(rep)
	untraced, err := repeat(cfg.measure/2, func() (time.Duration, error) { return run(nil) })
	if err != nil {
		return err
	}
	tr := newTracer()
	first, reports = nil, nil
	traced, err := repeat(cfg.measure/2, func() (time.Duration, error) { return run(tr) })
	if err != nil {
		return err
	}
	overhead(rep, untraced, traced)
	storageLayers(rep, tr.snapshot(), len(traced))
	stageLayers(rep, reports)
	if first != nil {
		rep.set("export.bytes", float64(len(first.out)))
	}

	// Isolated replay: the same graph as one-stage calls, each traced as a
	// call into its layer; its BAM must match the pipeline's.
	store, err := copyStore(st.store)
	if err != nil {
		return err
	}
	traced2, _, err := wrapStore(store, tr)
	if err != nil {
		return err
	}
	var bam bytes.Buffer
	_, err = tr.call("agdsort", "persona.Sort", func() error {
		_, err := persona.Sort(ctx, traced2, "in", persona.ByLocation, "staged")
		return err
	})
	if err == nil {
		_, err = tr.call("markdup", "persona.MarkDuplicates", func() error {
			_, err := persona.MarkDuplicates(ctx, traced2, "staged")
			return err
		})
	}
	if err == nil {
		_, err = tr.call("filter", "persona.Filter", func() error {
			_, _, err := persona.Filter(ctx, traced2, "staged", persona.FilterDropDuplicates(), "staged.kept")
			return err
		})
	}
	if err == nil {
		_, err = tr.call("formats", "persona.ExportBAM", func() error {
			_, err := persona.ExportBAM(ctx, traced2, "staged.kept", &bam)
			return err
		})
	}
	rep.op(err == nil && digest(bam.Bytes()) == want, fmt.Sprintf("sort: staged one-stage calls (err %v) differ from the pipeline's BAM", err))
	if err := replayCodec(rep, tr, st.store, "in"); err != nil {
		return err
	}
	replayAlign(rep, tr, st.idx, st.in.reads)
	return finishTrace(rep, cfg, tr, len(traced))
}
