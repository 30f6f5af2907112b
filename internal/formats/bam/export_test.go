package bam

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"persona/internal/agd"
	"persona/internal/dataflow"
	"persona/internal/formats/sam"
	"persona/internal/testutil"
)

// seqNibbleSwitch is the branchy encoder seqNibbleTab replaced, kept as the
// table's reference.
func seqNibbleSwitch(b byte) byte {
	switch b {
	case 'A', 'a':
		return 1
	case 'C', 'c':
		return 2
	case 'G', 'g':
		return 4
	case 'T', 't':
		return 8
	default:
		return 15 // N
	}
}

func TestSeqNibbleTableMatchesSwitch(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := seqNibbleTab[b], seqNibbleSwitch(byte(b)); got != want {
			t.Errorf("seqNibbleTab[%#02x] = %d, want %d", b, got, want)
		}
	}
}

// exportFixture is an aligned dataset whose BAM spans about ten BGZF
// blocks.
func exportFixture(t *testing.T) *agd.Dataset {
	t.Helper()
	return testutil.Build(t, agd.NewMemStore(), "ds", testutil.Config{NumReads: 3000, ChunkSize: 200}).Dataset
}

func TestExportStreamExecMatchesInline(t *testing.T) {
	ds := exportFixture(t)
	var inline bytes.Buffer
	if _, err := Export(context.Background(), ds, &inline); err != nil {
		t.Fatal(err)
	}
	exec := dataflow.NewExecutor(4, 8)
	defer exec.Close()
	in, err := sam.ExportGroups(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var viaExec bytes.Buffer
	n, err := ExportStream(context.Background(), in, &viaExec, exec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3000 {
		t.Fatalf("exported %d records, want 3000", n)
	}
	if submitted, _, _ := exec.Stats(); submitted < 5 {
		t.Fatalf("only %d blocks compressed on the executor; the fixture should span ~10", submitted)
	}
	if !bytes.Equal(inline.Bytes(), viaExec.Bytes()) {
		t.Fatalf("executor BAM (%d bytes) differs from inline BAM (%d bytes)", viaExec.Len(), inline.Len())
	}
}

func TestExportStreamAbortWaitsOutTasks(t *testing.T) {
	ds := exportFixture(t)
	exec := dataflow.NewExecutor(2, 4)
	defer exec.Close()
	in, err := sam.ExportGroups(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	// Upstream fails after 10 of 15 groups, with blocks in flight.
	boom := errors.New("upstream failed")
	groups := 0
	failing := agd.NewGroupStream(in.Meta, func(ctx context.Context) (*agd.RowGroup, error) {
		if groups == 10 {
			return nil, boom
		}
		groups++
		return in.Next(ctx)
	}, in.Close)
	var out bytes.Buffer
	if _, err := ExportStream(context.Background(), failing, &out, exec); !errors.Is(err, boom) {
		t.Fatalf("ExportStream error = %v, want %v", err, boom)
	}
	submitted, completed, _ := exec.Stats()
	if submitted == 0 {
		t.Fatal("no block reached the executor before the failure")
	}
	if submitted != completed {
		t.Fatalf("compression tasks outlive ExportStream: submitted %d, completed %d", submitted, completed)
	}
}
