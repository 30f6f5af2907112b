package bgzf

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"persona/internal/dataflow"
)

// seqPayload is n bytes of mutated tandem-repeat sequence text: about as
// compressible as rendered BAM records, so blocks take real deflate work.
func seqPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := range p {
		p[i] = "ACGT"[(i/7+i)%4]
		if rng.Intn(10) == 0 {
			p[i] = byte(rng.Intn(256))
		}
	}
	return p
}

// writeAll writes payload in uneven pieces, so block boundaries fall inside
// Write calls as well as between them.
func writeAll(t *testing.T, w *Writer, payload []byte) {
	t.Helper()
	for len(payload) > 0 {
		n := min(len(payload), 1+len(payload)%7919)
		if _, err := w.Write(payload[:n]); err != nil {
			t.Fatal(err)
		}
		payload = payload[n:]
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExecWriterMatchesInline(t *testing.T) {
	ctx := context.Background()
	sizes := []int{0, 1, MaxBlockSize - 1, MaxBlockSize, 3*MaxBlockSize + 12345}
	for _, workers := range []int{1, 4} {
		exec := dataflow.NewExecutor(workers, 2*workers)
		for _, level := range []int{gzip.BestSpeed, gzip.DefaultCompression} {
			for _, size := range sizes {
				t.Run(fmt.Sprintf("w%d/level%d/%d", workers, level, size), func(t *testing.T) {
					payload := seqPayload(size, int64(size))
					var inline, viaExec bytes.Buffer
					writeAll(t, NewWriterLevel(&inline, level), payload)
					submitted, _, _ := exec.Stats()
					writeAll(t, NewWriterExec(ctx, &viaExec, level, exec), payload)
					if !bytes.Equal(inline.Bytes(), viaExec.Bytes()) {
						t.Fatalf("executor output (%d bytes) differs from inline output (%d bytes)", viaExec.Len(), inline.Len())
					}
					// Only full blocks hop to the executor; the last partial
					// block compresses inline at Close.
					after, _, _ := exec.Stats()
					if got, want := after-submitted, int64(size/MaxBlockSize); got != want {
						t.Fatalf("submitted %d tasks, want %d (one per full block)", got, want)
					}
					got, err := io.ReadAll(NewReader(&viaExec))
					if err != nil || !bytes.Equal(got, payload) {
						t.Fatalf("round trip: err %v, equal %v", err, bytes.Equal(got, payload))
					}
				})
			}
		}
		exec.Close()
	}
}

// failWriter accepts limit writes, then fails every write.
type failWriter struct {
	limit int
	err   error
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.limit == 0 {
		return 0, f.err
	}
	f.limit--
	return len(p), nil
}

func TestExecWriterCloseAfterFailedWrite(t *testing.T) {
	exec := dataflow.NewExecutor(2, 4)
	defer exec.Close()
	boom := errors.New("sink full")
	w := NewWriterExec(context.Background(), &failWriter{limit: 1, err: boom}, gzip.BestSpeed, exec)
	payload := seqPayload(16*MaxBlockSize, 1)
	var werr error
	for i := 0; i < 16 && werr == nil; i++ {
		_, werr = w.Write(payload[i*MaxBlockSize : (i+1)*MaxBlockSize])
	}
	if !errors.Is(werr, boom) {
		t.Fatalf("Write error = %v, want %v", werr, boom)
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after a failed write = %v, want %v", err, boom)
	}
	if submitted, completed, _ := exec.Stats(); submitted != completed {
		t.Fatalf("tasks outlive Close: submitted %d, completed %d", submitted, completed)
	}
}

func TestExecWriterFailedSubmit(t *testing.T) {
	// A block whose submit fails (here: the run's ctx is cancelled while
	// the executor is saturated) must not be left in the FIFO for Close to
	// wait on.
	exec := dataflow.NewExecutor(1, 1)
	defer exec.Close()
	release, started := make(chan struct{}), make(chan struct{})
	if err := exec.Submit(context.Background(), func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := exec.Submit(context.Background(), func() {}); err != nil { // fills the only deque slot
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := NewWriterExec(ctx, io.Discard, gzip.BestSpeed, exec)
	if _, err := w.Write(seqPayload(2*MaxBlockSize, 2)); !errors.Is(err, dataflow.ErrStopped) {
		t.Fatalf("Write error = %v, want %v", err, dataflow.ErrStopped)
	}
	close(release)
	if err := w.Close(); !errors.Is(err, dataflow.ErrStopped) {
		t.Fatalf("Close error = %v, want %v", err, dataflow.ErrStopped)
	}
}
