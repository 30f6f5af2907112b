package main

import (
	"fmt"
	"strings"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/reads"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	higher     bool // a higher value is better
}

// pipelineStages are the stages whose output-queue peaks are reported.
var pipelineStages = []string{"read", "align", "sort", "markdup", "filter"}

// spanLayers are the layers the traced run records spans for.
var spanLayers = []string{"bench", "storage", "agd", "align", "agdsort", "markdup", "filter", "formats", "dataflow", "cluster", "jobs"}

// layerMetrics lists every per-layer metric in the order BENCHMARK.json
// declares them. A traced run prints all of them; a layer a workload does
// not run reads 0.
var layerMetrics = func() []layerMetric {
	var m []layerMetric
	add := func(name, unit string, higher bool) { m = append(m, layerMetric{name, unit, higher}) }
	for _, prefix := range append([]string{"storage"}, prefixed("storage.", blobClasses)...) {
		add(prefix+".get.calls", "count", false)
		add(prefix+".get.bytes", "bytes", false)
		add(prefix+".get.ms", "ms", false)
		add(prefix+".put.calls", "count", false)
		add(prefix+".put.bytes", "bytes", false)
		add(prefix+".put.ms", "ms", false)
	}
	add("storage.errors", "count", false)
	add("storage.retries", "count", false)
	add("storage.hedges", "count", false)
	add("cache.hits", "count", true)
	add("cache.misses", "count", false)
	add("cache.hit_ratio", "ratio", true)
	add("cache.evictions", "count", false)
	add("agd.decode.ns_per_byte", "ns/byte", false)
	add("agd.encode.ns_per_byte", "ns/byte", false)
	add("align.seed_lookups", "count", false)
	add("align.lv_candidates", "count", false)
	add("align.lv_cells", "count", false)
	add("align.lookup.ns", "ns", false)
	add("align.read.us", "us", false)
	add("align.busy_ms", "ms", false)
	add("align.blocked_ms", "ms", false)
	add("sort.busy_ms", "ms", false)
	add("sort.blocked_ms", "ms", false)
	add("sort.spill.runs", "count", false)
	add("sort.spill.raw_bytes", "bytes", false)
	add("sort.spill.stored_bytes", "bytes", false)
	add("markdup.busy_ms", "ms", false)
	add("markdup.dups", "count", false)
	add("filter.busy_ms", "ms", false)
	add("filter.kept_frac", "ratio", false)
	add("export.busy_ms", "ms", false)
	add("export.bytes", "bytes", false)
	add("executor.tasks", "count", false)
	add("executor.steals", "count", false)
	add("executor.busy_ms", "ms", false)
	for _, st := range pipelineStages {
		add("pipeline."+st+".peak_queue", "groups", false)
	}
	add("dataflow.pull_ms", "ms", false)
	add("dist.shuffle_bytes", "bytes", false)
	add("dist.partition_skew", "ratio", false)
	add("dist.reassigned", "count", false)
	add("dist.map_ms", "ms", false)
	add("dist.shuffle_ms", "ms", false)
	add("dist.reduce_ms", "ms", false)
	add("jobs.queue_wait_ms", "ms", false)
	add("jobs.run_ms", "ms", false)
	add("jobs.rejected", "count", false)
	add("api.requests", "count", false)
	add("api.ms", "ms", false)
	add("serve.gen_lag_ms", "ms", false)
	for _, l := range spanLayers {
		add("self."+l+".ms", "ms", false)
	}
	add("trace.overhead_pct", "%", false)
	return m
}()

func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}

// initLayers sets every per-layer metric to 0, so a traced run prints the
// full set whichever layers the workload runs.
func initLayers(r *report) {
	for _, m := range layerMetrics {
		r.setLayer(m.name, 0, m.unit)
	}
}

// set sets a per-layer metric declared in layerMetrics.
func (r *report) set(name string, v float64) {
	m, ok := r.layer[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m.Value = v
	r.layer[name] = m
}

// storageLayers derives the storage metrics from the store-call spans of
// the traced reps, as means per rep.
func storageLayers(r *report, spans []span, reps int) {
	if reps < 1 {
		return
	}
	sums := make(map[string]float64)
	for _, s := range spans {
		if s.Layer != "storage" || s.Rep == 0 {
			continue
		}
		if s.Err {
			sums["storage.errors"]++
		}
		if s.Op != "get" && s.Op != "put" {
			continue
		}
		for _, prefix := range []string{"storage", "storage." + s.Class} {
			sums[prefix+"."+s.Op+".calls"]++
			sums[prefix+"."+s.Op+".bytes"] += float64(s.Bytes)
			sums[prefix+"."+s.Op+".ms"] += ms(s.End - s.Start)
		}
	}
	for name, v := range sums {
		r.set(name, v/float64(reps))
	}
}

// spanLayerTimes sets each layer's self time: its mean per traced rep plus
// its self time in the isolated replays, which run once.
func spanLayerTimes(r *report, spans []span, reps int) {
	inReps, replays := selfTimes(spans)
	for _, l := range spanLayers {
		v := ms(replays[l])
		if reps > 0 {
			v += ms(inReps[l]) / float64(reps)
		}
		r.set("self."+l+".ms", v)
	}
}

// stageLayers reads the stage, executor, spill, markdup and filter reports
// of a workload's pipeline runs and sets each metric to its median over the
// runs. The first run's stages are also printed in the record.
func stageLayers(r *report, prs []*persona.PipelineReport) {
	vals := make(map[string][]float64)
	for i, pr := range prs {
		set := func(name string, v float64) { vals[name] = append(vals[name], v) }
		for _, st := range pr.Stages {
			if i == 0 {
				r.note("stage %-14s busy %8.1f ms  blocked %8.1f ms  peak queue %d", st.Stage, ms(st.Busy), ms(st.Blocked), st.PeakQueue)
			}
			stage := st.Stage
			if strings.HasPrefix(stage, "sort-") { // sort-location, sort-metadata
				stage = "sort"
			}
			switch stage {
			case "align", "sort", "markdup", "filter":
				set(stage+".busy_ms", ms(st.Busy))
				if stage == "align" || stage == "sort" {
					set(stage+".blocked_ms", ms(st.Blocked))
				}
			case "export-bam", "export-sam", "export-fastq":
				set("export.busy_ms", ms(st.Busy))
			}
			for _, name := range pipelineStages {
				if stage == name {
					set("pipeline."+name+".peak_queue", float64(st.PeakQueue))
				}
			}
		}
		set("executor.tasks", float64(pr.Executor.Completed))
		set("executor.steals", float64(pr.Executor.Steals))
		set("executor.busy_ms", ms(pr.Executor.Busy))
		if pr.Spill != nil {
			set("sort.spill.runs", float64(pr.Spill.Runs))
			set("sort.spill.raw_bytes", float64(pr.Spill.RawBytes))
			set("sort.spill.stored_bytes", float64(pr.Spill.StoredBytes))
		}
		set("markdup.dups", float64(pr.Dups.Duplicates))
		if pr.Filtered.In > 0 {
			set("filter.kept_frac", float64(pr.Filtered.Kept)/float64(pr.Filtered.In))
		}
		if pr.Cache != nil {
			hits, misses := float64(pr.Cache.Hits), float64(pr.Cache.Misses)
			set("cache.hits", hits)
			set("cache.misses", misses)
			set("cache.evictions", float64(pr.Cache.Evictions))
			if hits+misses > 0 {
				set("cache.hit_ratio", hits/(hits+misses))
			}
		}
	}
	for name, vs := range vals {
		r.set(name, median(vs))
	}
}

func alignCounts(r *report, st snap.Stats) {
	r.set("align.seed_lookups", float64(st.SeedLookups))
	r.set("align.lv_candidates", float64(st.CandidatesxLV))
	r.set("align.lv_cells", float64(st.LVCells))
}

// cacheLayers reports a chunk-cache delta over ops operations, per op.
func cacheLayers(r *report, before, after persona.CacheStats, ops int) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	per := float64(max(ops, 1))
	r.set("cache.hits", float64(hits)/per)
	r.set("cache.misses", float64(misses)/per)
	r.set("cache.evictions", float64(after.Evictions-before.Evictions)/per)
	if hits+misses > 0 {
		r.set("cache.hit_ratio", float64(hits)/float64(hits+misses))
	}
}

// maxReplayBlobs bounds the codec replay.
const maxReplayBlobs = 96

// replayCodec times agd.DecodeChunk and agd.EncodeChunk, with each blob's
// own compression, over the column blobs of one of the workload's datasets.
// It is an isolated replay: no other work runs meanwhile.
func replayCodec(r *report, tr *tracer, store persona.Store, dataset string) error {
	ds, err := persona.OpenDataset(store, dataset)
	if err != nil {
		return fmt.Errorf("codec replay: %w", err)
	}
	var decNS, encNS, decBytes, encBytes int64
	n := 0
chunks:
	for i := range ds.Manifest.Chunks {
		for _, col := range ds.Manifest.Columns {
			if n == maxReplayBlobs {
				break chunks
			}
			name := ds.Manifest.ChunkBlobPath(i, col)
			blob, err := store.Get(name)
			if err != nil {
				return fmt.Errorf("codec replay: %w", err)
			}
			meta, err := agd.ReadChunkMeta(store, name)
			if err != nil {
				return fmt.Errorf("codec replay: %w", err)
			}
			n++
			id := tr.begin(0, "agd", "DecodeChunk "+name)
			t0 := time.Now()
			c, err := agd.DecodeChunk(blob)
			decNS += int64(time.Since(t0))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("codec replay: %w", err)
			}
			decBytes += int64(len(blob))
			id = tr.begin(0, "agd", "EncodeChunk "+name)
			t0 = time.Now()
			out, err := agd.EncodeChunk(c, meta.Compression)
			encNS += int64(time.Since(t0))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("codec replay: %w", err)
			}
			encBytes += int64(len(out))
		}
	}
	if decBytes > 0 {
		r.set("agd.decode.ns_per_byte", float64(decNS)/float64(decBytes))
		r.set("agd.encode.ns_per_byte", float64(encNS)/float64(encBytes))
	}
	return nil
}

// maxReplayReads bounds the aligner replay.
const maxReplayReads = 2000

// replayAlign times (*snap.Index).Lookup over every seed position of the
// workload's reads, and (*snap.Aligner).AlignRead over the same reads, one
// span per read. It is an isolated replay on one goroutine.
func replayAlign(r *report, tr *tracer, idx *persona.Index, rs []reads.Read) {
	if len(rs) > maxReplayReads {
		rs = rs[:maxReplayReads]
	}
	seedLen := idx.SeedLen()
	var lookupNS int64
	lookups, hits := 0, 0
	for i := range rs {
		b := rs[i].Bases
		id := tr.begin(0, "align", "Lookup")
		t0 := time.Now()
		for p := 0; p+seedLen <= len(b); p++ {
			hits += len(idx.Lookup(b, p))
		}
		lookupNS += int64(time.Since(t0))
		tr.end(id)
		if len(b) >= seedLen {
			lookups += len(b) - seedLen + 1
		}
	}
	al := snap.NewAligner(idx, snap.Config{})
	id := int32(0)
	t0 := time.Now()
	for i := range rs {
		id = tr.begin(0, "align", "AlignRead")
		al.AlignRead(rs[i].Bases)
		tr.end(id)
	}
	alignNS := time.Since(t0)
	if lookups > 0 {
		r.set("align.lookup.ns", float64(lookupNS)/float64(lookups))
		r.note("align lookup replay: %d lookups, %d hits", lookups, hits)
	}
	if len(rs) > 0 {
		r.set("align.read.us", float64(alignNS)/float64(time.Microsecond)/float64(len(rs)))
	}
}
