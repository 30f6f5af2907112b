package main

import (
	"bytes"
	"context"
	"io"
	"time"

	"persona"
)

// sinkWriter is the export sink: it keeps the bytes the formats layer
// writes and, in a traced run, records a span per write.
type sinkWriter struct {
	buf bytes.Buffer
	tr  *tracer
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	if w.tr != nil {
		id := w.tr.begin(w.tr.ctx.Load(), "formats", "sink write")
		defer w.tr.end(id)
	}
	return w.buf.Write(p)
}

// pipelineRun is one timed Pipeline.Run on a fresh session.
type pipelineRun struct {
	out     []byte
	report  *persona.PipelineReport
	elapsed time.Duration
	span    int32 // the run's span in a traced run
}

// runPipeline builds a graph on a fresh session over store and times its
// Run alone; session set-up and tear-down stay outside the timer. layer
// names the span the run is traced under.
func runPipeline(ctx context.Context, store persona.Store, tr *tracer, layer, name string,
	build func(sess *persona.Session, sink io.Writer) *persona.Pipeline) (*pipelineRun, error) {
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	sink := &sinkWriter{tr: tr}
	p := build(sess, sink)
	res := &pipelineRun{}
	settle()
	t0 := time.Now()
	var err error
	res.span, err = tr.call(layer, name, func() error {
		var err error
		res.report, err = p.Run(ctx)
		return err
	})
	res.elapsed = time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.out = sink.buf.Bytes()
	return res, nil
}
