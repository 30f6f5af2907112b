package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"persona"
)

// runWGS runs the fused whole-genome graph, once single-node (pumped) and
// once across two in-process nodes per rep, on fresh sessions.
func runWGS(ctx context.Context, cfg runConfig, rep *report) error {
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
		in, err := simulate(sz.wgsGenome, sz.wgsReads, 0.15, cfg.seed)
		if err != nil {
			return nil, err
		}
		idx, err := persona.BuildIndex(in.genome)
		if err != nil {
			return nil, fmt.Errorf("build index: %w", err)
		}
		store := persona.NewMemStore()
		if err := importReads(ctx, store, "in", in, in.reads, sz.wgsChunk); err != nil {
			return nil, err
		}
		return &state{in, store, idx}, nil
	})
	if err != nil {
		return err
	}
	rep.note("inputs: genome=%d bp, %d reads x %d bp (15%% duplicates), %d reads/chunk", sz.wgsGenome, len(st.in.reads), readLen, sz.wgsChunk)

	graph := func(nodes int, serial bool) func(*persona.Session, io.Writer) *persona.Pipeline {
		return func(sess *persona.Session, sink io.Writer) *persona.Pipeline {
			p := sess.Read("in").
				Align(st.idx, persona.AlignOptions{}).
				Sort(persona.ByLocation).
				MarkDuplicates().
				ExportBAM(sink)
			if serial {
				p.Serial()
			}
			if nodes > 1 {
				p.Distributed(nodes)
			}
			return p
		}
	}

	want := cfg.expect
	var single, dist *pipelineRun
	var reports []*persona.PipelineReport // single-node runs
	var singleRate, distMS []float64
	var phases [3][]float64
	n := float64(len(st.in.reads))
	run := func(tr *tracer) (time.Duration, error) {
		store := st.store
		var ts *tracedStore
		if tr != nil {
			var err error
			if store, ts, err = wrapStore(store, tr); err != nil {
				return 0, err
			}
		}
		repID := tr.startRep("wgs rep")
		s, err := runPipeline(ctx, store, tr, "dataflow", "Pipeline.Run wgs single-node", graph(1, false))
		if err == nil {
			dist, err = runPipeline(ctx, store, tr, "cluster", "Pipeline.Run wgs 2 nodes", graph(2, false))
		}
		tr.endRep(repID)
		if ts != nil {
			ts.wait()
		}
		if err != nil {
			rep.op(false, fmt.Sprintf("wgs: %v", err))
			return 0, nil
		}
		single = s
		reports = append(reports, s.report)
		d := digest(s.out)
		if want == "" {
			want = d
		}
		rep.op(d == want, fmt.Sprintf("wgs: single-node BAM digest %s differs from the first rep's %s", d, want))
		rep.op(string(dist.out) == string(s.out), "wgs: 2-node BAM differs from the single-node BAM")
		singleRate = append(singleRate, n/s.elapsed.Seconds())
		distMS = append(distMS, ms(dist.elapsed))
		if tr != nil {
			for i, d := range distPhases(tr.snapshot(), dist.span) {
				phases[i] = append(phases[i], d)
			}
		}
		return dist.elapsed, nil
	}

	if !cfg.trace {
		if _, err := repeat(cfg.measure, func() (time.Duration, error) { return run(nil) }); err != nil {
			return err
		}
		acc := 0.0
		if single != nil {
			if acc, _, err = bamAccuracy(single.out, st.in); err != nil {
				return err
			}
		}
		batchE2E(rep, distMS, singleRate, setupS, acc)
		pumped := make([]float64, len(singleRate))
		for i, r := range singleRate {
			pumped[i] = n / r * 1e3
		}
		rep.note("reps: pumped ms %s", fmtMS(pumped))
		rep.note("wgs_reads_per_s: %.1f reads/s single-node pumped; dist_reads_per_s: %.1f reads/s at 2 nodes (medians of %d reps); BAM digest %s",
			median(singleRate), n/(median(distMS)/1e3), len(distMS), want)
		return nil
	}

	initLayers(rep)
	untraced, err := repeat(cfg.measure/2, func() (time.Duration, error) { return run(nil) })
	if err != nil {
		return err
	}
	pumpedMS := n / median(singleRate) * 1e3
	tr := newTracer()
	reports = nil
	traced, err := repeat(cfg.measure/2, func() (time.Duration, error) { return run(tr) })
	if err != nil {
		return err
	}
	overhead(rep, untraced, traced)
	storageLayers(rep, tr.snapshot(), len(traced))
	stageLayers(rep, reports)
	if single != nil {
		rep.set("export.bytes", float64(len(single.out)))
	}
	if dist != nil && dist.report.Cluster != nil {
		c := dist.report.Cluster
		rep.set("dist.shuffle_bytes", float64(c.ShuffleBytes))
		rep.set("dist.partition_skew", c.PartitionSkew)
		rep.set("dist.reassigned", float64(c.Reassigned))
	}
	rep.set("dist.map_ms", median(phases[0]))
	rep.set("dist.shuffle_ms", median(phases[1]))
	rep.set("dist.reduce_ms", median(phases[2]))

	// Isolated replay: the same graph on the strictly sequential pull path,
	// against the pumped single-node wall of the untraced reps.
	var pull []float64
	for i := 0; i < 3; i++ {
		res, err := runPipeline(ctx, st.store, tr, "dataflow", "Pipeline.Run wgs serial", graph(1, true))
		rep.op(err == nil && digest(res.out) == want, fmt.Sprintf("wgs: serial pull run (err %v) differs from the pumped BAM", err))
		if err != nil {
			break
		}
		pull = append(pull, ms(res.elapsed))
	}
	rep.set("dataflow.pull_ms", median(pull))
	rep.note("dataflow.pull_ms %.1f ms vs pumped single-node %.1f ms (median of the untraced reps)", median(pull), pumpedMS)
	if err := replayCodec(rep, tr, st.store, "in"); err != nil {
		return err
	}
	replayAlign(rep, tr, st.idx, st.in.reads)
	return finishTrace(rep, cfg, tr, len(traced))
}

// distPhases infers a distributed run's map, shuffle and reduce times from
// the store calls made under its span, since the run's own stage reports
// read zero: map runs from the first store call to the last sorted-run put,
// shuffle from the first to the last piece or halo put, and reduce from the
// first piece or halo get to the last output put.
func distPhases(spans []span, run int32) [3]float64 {
	type window struct{ a, b time.Duration }
	var w [3]window
	widen := func(i int, a, b time.Duration) {
		if w[i].b == 0 || a < w[i].a {
			w[i].a = a
		}
		if b > w[i].b {
			w[i].b = b
		}
	}
	var first time.Duration = -1
	for _, s := range spans {
		if s.Layer != "storage" || s.Parent != run {
			continue
		}
		if first < 0 || s.Start < first {
			first = s.Start
		}
		piece := strings.Contains(s.Name, "/piece-") || strings.Contains(s.Name, "/halo-")
		switch {
		case s.Op == "put" && strings.Contains(s.Name, "/tmp/run-"):
			widen(0, s.Start, s.End)
		case s.Op == "put" && piece:
			widen(1, s.Start, s.End)
		case s.Op == "get" && piece:
			widen(2, s.Start, s.End)
		case s.Op == "put" && s.Class == classOutput:
			widen(2, s.Start, s.End)
		}
	}
	var out [3]float64
	if first >= 0 && w[0].b > 0 {
		w[0].a = first
	}
	for i := range w {
		out[i] = ms(w[i].b - w[i].a)
	}
	return out
}
