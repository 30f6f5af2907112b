//go:build !race

// The race detector's sync.Pool drops pooled deflaters at random, so the
// allocation guard runs only without it.

package bgzf

import (
	"compress/gzip"
	"context"
	"io"
	"testing"

	"persona/internal/dataflow"
)

func TestExecWriterAllocsBoundedByWindow(t *testing.T) {
	const workers = 2
	exec := dataflow.NewExecutor(workers, 2*workers)
	defer exec.Close()
	payload := seqPayload(64*MaxBlockSize, 3)
	var blocks int
	export := func(n int) func() {
		return func() {
			w := NewWriterExec(context.Background(), io.Discard, gzip.BestSpeed, exec)
			if _, err := w.Write(payload[:n*MaxBlockSize]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			blocks = len(w.free) + 1 // every block the writer made: recycled ones plus cur
		}
	}
	small := testing.AllocsPerRun(5, export(8))
	large := testing.AllocsPerRun(5, export(64))
	if window := 2*workers + 1; blocks > window {
		t.Fatalf("a 64-block export made %d block buffers, want at most %d (the window plus the block being filled)", blocks, window)
	}
	// 56 more blocks must cost no more objects: buffers are recycled, and
	// submits reuse each block's bound task. The slack absorbs a pooled
	// deflater lost to a GC mid-run.
	if large > small+8 {
		t.Fatalf("64-block export allocates %.0f objects, 8-block export %.0f: allocation grows with the block count", large, small)
	}
}
