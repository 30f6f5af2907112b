// Package bgzf implements the Blocked GZIP Format used by BAM: a series of
// independently decompressible gzip members, each carrying its compressed
// size in a "BC" extra subfield, terminated by a fixed empty EOF block.
// Block independence is what makes BAM seekable; Persona's row-oriented
// baselines use it the way samtools does.
package bgzf

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"persona/internal/dataflow"
)

// MaxBlockSize is the maximum uncompressed payload per BGZF block, chosen so
// the compressed block size always fits the 16-bit BSIZE field.
const MaxBlockSize = 0xff00

// eofMarker is the specification's 28-byte empty terminal block.
var eofMarker = []byte{
	0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff,
	0x06, 0x00, 0x42, 0x43, 0x02, 0x00, 0x1b, 0x00, 0x03, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
}

// Writer compresses a stream into BGZF blocks. Block boundaries depend only
// on the uncompressed stream and every block is deflated the same way, so
// the output is byte-identical whether blocks compress inline or on an
// executor.
//
// With an executor, each full block is deflated as a task while the caller
// fills the next, and blocks are written in stream order through a FIFO of
// at most 2×Workers blocks in flight; payload and output buffers are
// recycled, so memory is bounded by that window. The final partial block
// compresses inline at Close, so a one-block stream never hops to the
// executor. A Writer must be driven from one goroutine that is not itself
// an executor task (a pipeline pump or a plain caller): it waits on its own
// tasks, and a task blocked on tasks can starve the executor it runs on.
type Writer struct {
	w     io.Writer
	level int
	ctx   context.Context
	exec  *dataflow.Executor

	cur      *block   // the block being filled
	inflight []*block // submitted blocks, oldest first
	free     []*block // recycled blocks
	err      error
}

// block is one BGZF block's payload and compressed form, with the task that
// deflates it and its completion channel bound once, so a submit allocates
// nothing.
type block struct {
	payload []byte
	out     bytes.Buffer
	err     error
	task    dataflow.Task
	done    chan struct{} // one token per finished task
}

func newBlock(level int) *block {
	b := &block{payload: make([]byte, 0, MaxBlockSize), done: make(chan struct{}, 1)}
	b.task = func() { b.err = compressBlock(&b.out, b.payload, level) }
	return b
}

var errClosed = errors.New("bgzf: writer closed")

// NewWriter returns a BGZF writer over w compressing inline at
// gzip.BestSpeed.
func NewWriter(w io.Writer) *Writer {
	return NewWriterLevel(w, gzip.BestSpeed)
}

// NewWriterLevel returns a BGZF writer compressing inline at the given gzip
// level (tools differ here: htslib-era tools favour speed, Picard-era
// defaults favour ratio, and the difference is visible in Table 2).
func NewWriterLevel(w io.Writer, level int) *Writer {
	return NewWriterExec(context.Background(), w, level, nil)
}

// NewWriterExec returns a BGZF writer that compresses full blocks as tasks
// on exec, submitted under ctx. A nil exec compresses inline.
func NewWriterExec(ctx context.Context, w io.Writer, level int, exec *dataflow.Executor) *Writer {
	return &Writer{w: w, level: level, ctx: ctx, exec: exec, cur: newBlock(level)}
}

// Write buffers p, compressing full blocks as they fill.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	total := len(p)
	for len(p) > 0 {
		b := w.cur
		n := min(len(p), MaxBlockSize-len(b.payload))
		b.payload = append(b.payload, p[:n]...)
		p = p[n:]
		if len(b.payload) == MaxBlockSize {
			if w.err = w.flushBlock(); w.err != nil {
				return total - len(p), w.err
			}
		}
	}
	return total, nil
}

// flushBlock hands the full current block on: inline it compresses and
// writes it; with an executor it submits it, first writing the oldest
// in-flight block if the window is full. A block whose submit fails stays
// current and never enters the FIFO, so no wait can hang on it.
func (w *Writer) flushBlock() error {
	if w.exec == nil {
		w.cur.task()
		return w.writeBlock(w.cur)
	}
	if len(w.inflight) >= 2*w.exec.Workers() {
		if err := w.writeHead(); err != nil {
			return err
		}
	}
	if err := w.exec.SubmitNotify(w.ctx, w.cur.task, w.cur.done); err != nil {
		return err
	}
	w.inflight = append(w.inflight, w.cur)
	if n := len(w.free); n > 0 {
		w.cur, w.free = w.free[n-1], w.free[:n-1]
	} else {
		w.cur = newBlock(w.level)
	}
	return nil
}

// writeBlock writes a compressed block and empties its payload for reuse.
func (w *Writer) writeBlock(b *block) error {
	if b.err != nil {
		return b.err
	}
	b.payload = b.payload[:0]
	_, err := w.w.Write(b.out.Bytes())
	return err
}

// writeHead waits for the oldest in-flight block, writes it and recycles it.
// The waits here and in Abort take no ctx: a submitted task always runs,
// even across executor Close, and until it has run a worker may still be
// reading the block's buffers.
func (w *Writer) writeHead() error {
	b := w.inflight[0]
	<-b.done
	n := copy(w.inflight, w.inflight[1:])
	w.inflight = w.inflight[:n]
	w.free = append(w.free, b)
	return w.writeBlock(b)
}

// Abort waits out the in-flight compression tasks and discards them without
// writing anything more; the writer is unusable afterwards. Call it instead
// of Close when the stream has failed upstream, so no task outlives the
// caller.
func (w *Writer) Abort() {
	for _, b := range w.inflight {
		<-b.done
	}
	w.inflight = nil
	if w.err == nil {
		w.err = errClosed
	}
}

// Close writes the in-flight blocks in order, compresses the final partial
// block inline, and writes the EOF marker. On an earlier error it only
// waits out the in-flight tasks and returns that error. It does not close
// the underlying writer.
func (w *Writer) Close() error {
	for len(w.inflight) > 0 && w.err == nil {
		w.err = w.writeHead()
	}
	if w.err == nil && len(w.cur.payload) > 0 {
		w.cur.task()
		w.err = w.writeBlock(w.cur)
	}
	if w.err == nil {
		_, w.err = w.w.Write(eofMarker)
	}
	err := w.err
	w.Abort()
	return err
}

// gzPool recycles gzip writers: their deflate state is megabyte-scale and
// BGZF creates one stream per 64 KB block.
var gzPool = sync.Pool{
	New: func() any {
		w, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return w
	},
}

// bcExtra is the BGZF extra subfield template; compressBlock patches BSIZE
// into the output, never into this slice.
var bcExtra = []byte{'B', 'C', 2, 0, 0, 0}

// compressBlock gzips one payload into out as a BGZF block. BSIZE (total
// block size - 1) lives in the extra subfield at offset 16 of the block (10
// fixed header bytes + 2 XLEN + 4 subfield header) and is patched after
// compression. BestSpeed (and 0) share pooled deflaters; other levels
// allocate a fresh deflater per block, which is faithful to the per-record
// churn of the JVM tools that use them.
func compressBlock(out *bytes.Buffer, payload []byte, level int) error {
	out.Reset()
	var zw *gzip.Writer
	if level == gzip.BestSpeed || level == 0 {
		zw = gzPool.Get().(*gzip.Writer)
		defer gzPool.Put(zw)
		zw.Reset(out)
	} else {
		var err error
		if zw, err = gzip.NewWriterLevel(out, level); err != nil {
			return err
		}
	}
	zw.Extra = bcExtra
	if _, err := zw.Write(payload); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	block := out.Bytes()
	if len(block) > 0xffff {
		return fmt.Errorf("bgzf: compressed block too large (%d bytes)", len(block))
	}
	binary.LittleEndian.PutUint16(block[16:18], uint16(len(block)-1))
	return nil
}

// Reader decompresses a BGZF stream block by block.
type Reader struct {
	br   *bufio.Reader
	zr   *gzip.Reader
	open bool
}

// NewReader returns a BGZF reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Read implements io.Reader across block boundaries.
func (r *Reader) Read(p []byte) (int, error) {
	for {
		if !r.open {
			if err := r.nextBlock(); err != nil {
				return 0, err
			}
		}
		n, err := r.zr.Read(p)
		if n > 0 {
			return n, nil
		}
		if err == io.EOF {
			r.open = false
			continue
		}
		if err != nil {
			return 0, err
		}
	}
}

// nextBlock positions the gzip reader at the next member.
func (r *Reader) nextBlock() error {
	// Peek for EOF.
	if _, err := r.br.Peek(1); err != nil {
		return io.EOF
	}
	if r.zr == nil {
		zr, err := gzip.NewReader(r.br)
		if err != nil {
			return fmt.Errorf("bgzf: %w", err)
		}
		zr.Multistream(false)
		r.zr = zr
	} else {
		if err := r.zr.Reset(r.br); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("bgzf: %w", err)
		}
		r.zr.Multistream(false)
	}
	r.open = true
	return nil
}
