package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/baseline"
	"persona/internal/formats/sam"
	"persona/internal/markdup"
)

// Table2Result holds the measured sort comparison (paper Table 2).
type Table2Result struct {
	Scale                Scale
	PersonaSeconds       float64
	SamtoolsSeconds      float64
	SamtoolsConvSeconds  float64 // conversion + sort
	PicardSeconds        float64
	SamtoolsSlowdown     float64
	SamtoolsConvSlowdown float64
	PicardSlowdown       float64
}

// RunTable2 measures full-dataset sorting: Persona's AGD external merge
// sort versus the samtools-style BAM sort (with and without the SAM→BAM
// conversion) and the Picard-style single-threaded sort. Each time is the
// median of interleaved trials after a warm-up.
func RunTable2(ctx context.Context, w io.Writer, sc Scale) (*Table2Result, error) {
	store := agd.NewMemStore()
	f, err := sc.fixture(store, "ds", true)
	if err != nil {
		return nil, err
	}

	// Render the row-oriented inputs the baselines need.
	var samText bytes.Buffer
	if _, err := sam.Export(ctx, f.Dataset, &samText); err != nil {
		return nil, err
	}
	refs := f.Dataset.Manifest.RefSeqs
	var bamBlob bytes.Buffer
	if _, err := baseline.ConvertSAMToBAM(bytes.NewReader(samText.Bytes()), &bamBlob, refs); err != nil {
		return nil, err
	}

	// Every arm sorts the same input again (the Persona arm overwrites its
	// output dataset), so its trials repeat.
	secs, err := medianSeconds(
		func() error {
			_, err := agdsort.SortDataset(ctx, f.Dataset, agdsort.Options{By: agdsort.ByLocation, OutputName: "sorted"})
			return err
		},
		func() error {
			var sortedBAM bytes.Buffer
			_, err := baseline.SamtoolsSortBAM(bytes.NewReader(bamBlob.Bytes()), &sortedBAM)
			return err
		},
		func() error {
			var convBAM, sortedBAM bytes.Buffer
			if _, err := baseline.ConvertSAMToBAM(bytes.NewReader(samText.Bytes()), &convBAM, refs); err != nil {
				return err
			}
			_, err := baseline.SamtoolsSortBAM(bytes.NewReader(convBAM.Bytes()), &sortedBAM)
			return err
		},
		func() error {
			var sortedSAM bytes.Buffer
			_, err := baseline.PicardSortSAM(bytes.NewReader(samText.Bytes()), &sortedSAM, refs)
			return err
		},
	)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{
		Scale:               sc,
		PersonaSeconds:      secs[0],
		SamtoolsSeconds:     secs[1],
		SamtoolsConvSeconds: secs[2],
		PicardSeconds:       secs[3],
	}
	res.SamtoolsSlowdown = res.SamtoolsSeconds / res.PersonaSeconds
	res.SamtoolsConvSlowdown = res.SamtoolsConvSeconds / res.PersonaSeconds
	res.PicardSlowdown = res.PicardSeconds / res.PersonaSeconds

	section(w, "Table 2 (measured): dataset sort time")
	fmt.Fprintf(w, "workload: %s; median of %d interleaved trials\n", sc, timedTrials)
	fmt.Fprintf(w, "%-26s %10s %10s   paper\n", "Tool", "time (s)", "vs Persona")
	fmt.Fprintf(w, "%-26s %10.3f %10.2f   1.0x\n", "Persona (AGD merge sort)", res.PersonaSeconds, 1.0)
	fmt.Fprintf(w, "%-26s %10.3f %10.2f   1.54x\n", "Samtools-style (BAM)", res.SamtoolsSeconds, res.SamtoolsSlowdown)
	fmt.Fprintf(w, "%-26s %10.3f %10.2f   2.32x\n", "Samtools w/ conversion", res.SamtoolsConvSeconds, res.SamtoolsConvSlowdown)
	fmt.Fprintf(w, "%-26s %10.3f %10.2f   5.15x\n", "Picard-style (SAM, 1 thr)", res.PicardSeconds, res.PicardSlowdown)
	return res, nil
}

// DupmarkResult holds the §5.6 duplicate-marking comparison.
type DupmarkResult struct {
	Scale                 Scale
	PersonaReadsPerSec    float64
	SamblasterReadsPerSec float64
	Ratio                 float64
}

// RunDupmark measures duplicate marking: Persona over the results column
// versus the Samblaster-style SAM streaming marker, each rate from the
// median of interleaved trials after a warm-up (medianSeconds).
func RunDupmark(ctx context.Context, w io.Writer, sc Scale) (*DupmarkResult, error) {
	store := agd.NewMemStore()
	f, err := sc.fixture(store, "ds", true)
	if err != nil {
		return nil, err
	}
	var samText bytes.Buffer
	if _, err := sam.Export(ctx, f.Dataset, &samText); err != nil {
		return nil, err
	}
	refs := f.Dataset.Manifest.RefSeqs

	// Marking is idempotent (the same first occurrences survive each pass),
	// so every trial re-marks the same dataset and re-reads the same SAM.
	var stats markdup.Stats
	var bstats baseline.DupStats
	secs, err := medianSeconds(
		func() (err error) {
			stats, err = markdup.MarkDataset(ctx, f.Dataset)
			return err
		},
		func() (err error) {
			var out bytes.Buffer
			bstats, err = baseline.SamblasterMark(bytes.NewReader(samText.Bytes()), &out, refs)
			return err
		},
	)
	if err != nil {
		return nil, err
	}

	res := &DupmarkResult{
		Scale:                 sc,
		PersonaReadsPerSec:    float64(stats.Reads) / secs[0],
		SamblasterReadsPerSec: float64(bstats.Reads) / secs[1],
	}
	res.Ratio = res.PersonaReadsPerSec / res.SamblasterReadsPerSec

	section(w, "Duplicate marking (measured, §5.6)")
	fmt.Fprintf(w, "workload: %s; median of %d interleaved trials\n", sc, timedTrials)
	fmt.Fprintf(w, "%-26s %14.0f reads/s\n", "Persona (results column)", res.PersonaReadsPerSec)
	fmt.Fprintf(w, "%-26s %14.0f reads/s\n", "Samblaster-style (SAM)", res.SamblasterReadsPerSec)
	fmt.Fprintf(w, "ratio %.2fx (paper: 1.36M vs 365K reads/s = 3.7x)\n", res.Ratio)
	return res, nil
}
