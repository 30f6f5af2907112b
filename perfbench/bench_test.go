package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/storage"
)

// tinySizes keep each workload to a second or two.
var tinySizes = sizes{
	alignGenome: 100_000, alignReads: 1000, alignChunk: 200,
	sortGenome: 100_000, sortReads: 2000, sortChunk: 100,
	wgsGenome: 100_000, wgsReads: 1000, wgsChunk: 100,
	serveGenome: 100_000, serveReads: 200, serveChunk: 50, serveDatasets: 4,
	serveRate: 20, serveLatency: time.Millisecond,
	setups: 2,
}

func tinyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 3, measure: time.Second, trace: trace, outDir: t.TempDir(), sizes: tinySizes}
}

// TestWrapperKeepsInterfaces checks that the traced store exposes exactly
// the optional interfaces of the store it wraps, so a traced run takes the
// same code path as an untraced one.
func TestWrapperKeepsInterfaces(t *testing.T) {
	mem := persona.NewMemStore()
	lat := storage.WithLatency(mem, time.Millisecond)
	stores := map[string]agd.BlobStore{
		"MemStore":     mem,
		"LatencyStore": lat,
		"RetryStore":   persona.NewRetryStore(lat, persona.RetryPolicy{}),
	}
	set := func(s agd.BlobStore) []bool {
		_, a := s.(agd.AsyncBlobStore)
		_, r := s.(agd.RangeBlobStore)
		_, st := s.(interface{ RetryStats() storage.RetryStats })
		_, rp := s.(interface {
			ReadProfile() (time.Duration, float64, int)
		})
		_, c := s.(io.Closer)
		return []bool{a, r, st, rp, c}
	}
	for name, inner := range stores {
		wrapped, _, err := wrapStore(inner, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := set(wrapped), set(inner); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapper interfaces (async, range, retry stats, read profile, closer) = %v, wrapped store has %v", name, got, want)
		}
	}
}

// TestTracedRunsRepeat checks that two traced runs of the wgs graph give
// the same output and the same store calls per blob class.
func TestTracedRunsRepeat(t *testing.T) {
	ctx := context.Background()
	in, err := simulate(100_000, 1000, 0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := persona.BuildIndex(in.genome)
	if err != nil {
		t.Fatal(err)
	}
	base := persona.NewMemStore()
	if err := importReads(ctx, base, "in", in, in.reads, 100); err != nil {
		t.Fatal(err)
	}
	graph := func(sess *persona.Session, sink io.Writer) *persona.Pipeline {
		return sess.Read("in").Align(idx, persona.AlignOptions{}).Sort(persona.ByLocation).MarkDuplicates().ExportBAM(sink)
	}
	type outcome struct {
		digest string
		calls  map[string]int
	}
	run := func() outcome {
		tr := newTracer()
		store, ts, err := wrapStore(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		id := tr.startRep("rep")
		res, err := runPipeline(ctx, store, tr, "dataflow", "run", graph)
		tr.endRep(id)
		ts.wait()
		if err != nil {
			t.Fatal(err)
		}
		calls := make(map[string]int)
		for _, s := range tr.snapshot() {
			if s.Layer == "storage" {
				calls[s.Class+" "+s.Op]++
			}
		}
		return outcome{digest(res.out), calls}
	}
	a, b := run(), run()
	if a.digest != b.digest {
		t.Errorf("digests differ: %s vs %s", a.digest, b.digest)
	}
	if !reflect.DeepEqual(a.calls, b.calls) {
		t.Errorf("store calls per class differ:\n%v\n%v", a.calls, b.calls)
	}
	if a.calls["input get"] == 0 || a.calls["spill put"] == 0 {
		t.Errorf("expected input gets and spill puts, got %v", a.calls)
	}
	// The untraced run must produce the same bytes.
	res, err := runPipeline(ctx, base, nil, "dataflow", "run", graph)
	if err != nil {
		t.Fatal(err)
	}
	if d := digest(res.out); d != a.digest {
		t.Errorf("untraced digest %s differs from traced %s", d, a.digest)
	}
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (e2e, layer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for i, m := range doc.PerLayer {
		layer = append(layer, m.Name)
		if i < len(layerMetrics) && (m.Unit != layerMetrics[i].unit || (m.Better == "higher") != layerMetrics[i].higher) {
			t.Errorf("per-layer metric %s: BENCHMARK.json declares %s/%s, layerMetrics %s/%v", m.Name, m.Unit, m.Better, layerMetrics[i].unit, layerMetrics[i].higher)
		}
	}
	return e2e, layer
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWorkloads runs every workload at a tiny size, untraced and traced,
// and checks that each passes its output checks and prints exactly the
// metrics BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	sort.Strings(e2e)
	sort.Strings(layer)
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, trace)
			rep := newReport(name, cfg)
			if err := run(context.Background(), cfg, rep); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%v", name, trace, res.Correct, res.Attempted, res.Failed, rep.checks)
			}
			want := e2e
			if trace {
				want = layer
			}
			if got := names(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", name, trace, got, want)
			}
			if !trace {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

// TestWrongDigestFails checks that an output that differs from the
// expected digest fails the run.
func TestWrongDigestFails(t *testing.T) {
	for _, name := range []string{"sort", "wgs"} {
		cfg := tinyConfig(t, false)
		cfg.expect = "0123456789abcdef"
		rep := newReport(name, cfg)
		if err := workloads[name](context.Background(), cfg, rep); err != nil {
			t.Fatal(err)
		}
		if res := rep.result(); res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted expected digest passed: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// TestHarrellDavis checks the tail estimator against the order statistics
// it weights.
func TestHarrellDavis(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, q := range []float64{0.5, 0.9, 0.95} {
		got, want := harrellDavis(xs, q), quantile(xs, q)
		if d := got - want; d < -1 || d > 1 {
			t.Errorf("harrellDavis(0..999, %v) = %v, want about %v", q, got, want)
		}
	}
	if got := betaInc(2, 3, 0.5); got < 0.6874 || got > 0.6876 { // I_0.5(2,3) = 11/16
		t.Errorf("betaInc(2, 3, 0.5) = %v, want 0.6875", got)
	}
}
