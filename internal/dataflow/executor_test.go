package dataflow

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExecutorRunsAllTasks(t *testing.T) {
	e := NewExecutor(4, 8)
	defer e.Close()
	ctx := context.Background()

	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := e.Submit(ctx, func() {
			defer wg.Done()
			n.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	// The WaitGroup fires inside the task, just before the worker bumps its
	// completed counter; poll briefly so the assertion doesn't race it.
	var submitted, completed int64
	for deadline := time.Now().Add(2 * time.Second); ; {
		submitted, completed, _ = e.Stats()
		if completed == 100 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if submitted != 100 || completed != 100 {
		t.Fatalf("Stats = (%d, %d), want (100, 100)", submitted, completed)
	}
}

func TestExecutorParallelismBound(t *testing.T) {
	const workers = 3
	e := NewExecutor(workers, 64)
	defer e.Close()
	ctx := context.Background()

	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		err := e.Submit(ctx, func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestExecutorSubmitWait(t *testing.T) {
	e := NewExecutor(2, 4)
	defer e.Close()
	ctx := context.Background()

	results := make([]int, 10)
	err := e.SubmitWait(ctx, len(results), func(i int) Task {
		return func() { results[i] = i * i }
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestExecutorSubmitNotifyCountsBeforeSignal(t *testing.T) {
	e := NewExecutor(2, 4)
	defer e.Close()
	done := make(chan struct{}, 1)
	ran := 0
	for i := 1; i <= 50; i++ {
		if err := e.SubmitNotify(context.Background(), func() { ran++ }, done); err != nil {
			t.Fatal(err)
		}
		<-done
		// The token arrives only after the task is counted, so a caller
		// that has its token sees its task in Stats.
		if submitted, completed, _ := e.Stats(); ran != i || submitted != completed {
			t.Fatalf("after token %d: ran %d, submitted %d, completed %d", i, ran, submitted, completed)
		}
	}
}

func TestExecutorSubmitWaitZero(t *testing.T) {
	e := NewExecutor(1, 1)
	defer e.Close()
	if err := e.SubmitWait(context.Background(), 0, nil); err != nil {
		t.Fatalf("SubmitWait(0) = %v", err)
	}
}

func TestExecutorCloseDrains(t *testing.T) {
	e := NewExecutor(1, 16)
	ctx := context.Background()
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		if err := e.Submit(ctx, func() {
			time.Sleep(time.Millisecond)
			n.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Close() // must wait for queued tasks
	if n.Load() != 10 {
		t.Fatalf("Close drained %d tasks, want 10", n.Load())
	}
	if err := e.Submit(ctx, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestExecutorSharedAcrossFeeders(t *testing.T) {
	// Multiple "aligner nodes" feed one executor concurrently — the Fig. 4
	// configuration. Each waits for its own chunk's subchunks only.
	e := NewExecutor(4, 8)
	defer e.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	for node := 0; node < 6; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			sum := make([]int64, 1)
			err := e.SubmitWait(ctx, 20, func(i int) Task {
				return func() { atomic.AddInt64(&sum[0], int64(i)) }
			})
			if err != nil {
				t.Errorf("node %d: %v", node, err)
				return
			}
			if sum[0] != 190 { // 0+1+..+19
				t.Errorf("node %d: sum = %d before SubmitWait returned, want 190", node, sum[0])
			}
		}(node)
	}
	wg.Wait()
}

// settle gives freshly started workers time to finish their initial sweep
// and park, so wake-token bookkeeping is deterministic from a known state.
func settle() { time.Sleep(30 * time.Millisecond) }

func TestExecutorSubmitToAffinityWhenIdle(t *testing.T) {
	// With every worker parked and no wake tokens outstanding, a SubmitTo
	// places only the owner's token, so the target shard itself must run
	// the task.
	e := NewExecutor(4, 16)
	defer e.Close()
	ctx := context.Background()
	settle()

	const target = 2
	for i := 0; i < 20; i++ {
		// Wait for the owner to re-park: a push to a non-parked owner
		// deliberately invites a thief, so strict affinity only holds
		// from the parked state.
		for deadline := time.Now().Add(2 * time.Second); !e.shards[target].parked.Load(); {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d worker never parked before probe %d", target, i)
			}
			time.Sleep(time.Millisecond)
		}
		ran := make(chan int, 1)
		if err := e.SubmitSharded(ctx, target, func(shard int) { ran <- shard }); err != nil {
			t.Fatal(err)
		}
		select {
		case shard := <-ran:
			if shard != target {
				t.Fatalf("probe %d ran on shard %d, want %d (idle-shard affinity)", i, shard, target)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("probe %d never ran", i)
		}
	}
	stats := e.ShardStats()
	if stats[target].Completed != 20 {
		t.Fatalf("shard %d completed %d, want 20", target, stats[target].Completed)
	}
	if got := e.Steals(); got != 0 {
		t.Fatalf("Steals = %d on an idle executor, want 0", got)
	}
}

func TestExecutorBusyOwnerInvitesThief(t *testing.T) {
	// A task pushed to a shard whose owner is mid-task must not wait out
	// that task while another worker sits parked: the push invites a thief.
	e := NewExecutor(2, 8)
	defer e.Close()
	ctx := context.Background()
	settle()

	gate := make(chan struct{})
	if err := e.SubmitTo(ctx, 0, func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	settle() // worker 0 is now inside the gate task; worker 1 is parked
	done := make(chan int, 1)
	if err := e.SubmitSharded(ctx, 0, func(shard int) { done <- shard }); err != nil {
		t.Fatal(err)
	}
	select {
	case shard := <-done:
		if shard != 1 {
			t.Fatalf("probe ran on shard %d, want stolen by idle shard 1", shard)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("probe stranded behind the busy owner")
	}
	close(gate)
}

func TestExecutorStealSpreadsWork(t *testing.T) {
	// Everything is submitted to shard 0 (the deque is deep enough that
	// nothing spills); the other shards must steal the batch's tail.
	e := NewExecutor(4, 256)
	defer e.Close()
	ctx := context.Background()
	settle()

	const tasks = 48
	var ran atomic.Int64
	c := NewCompletion(tasks)
	for i := 0; i < tasks; i++ {
		if err := e.SubmitTo(ctx, 0, func() {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			c.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != tasks {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), tasks)
	}
	if e.Steals() == 0 {
		t.Fatal("no steals while one shard held the whole batch")
	}
	// The latch fires inside the task, just before the worker bumps its
	// completed counter, so give the counters a moment to settle.
	var stats []ShardStat
	var completed int64
	for deadline := time.Now().Add(2 * time.Second); ; {
		stats = e.ShardStats()
		completed = 0
		for _, s := range stats {
			completed += s.Completed
		}
		if completed == tasks || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if stats[0].Submitted != tasks {
		t.Fatalf("shard 0 submitted %d, want %d", stats[0].Submitted, tasks)
	}
	if completed != tasks {
		t.Fatalf("per-shard completions sum to %d, want %d", completed, tasks)
	}
	busy := 0
	for _, s := range stats {
		if s.Completed > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shards completed work; stealing did not spread the batch", busy)
	}
}

func TestExecutorCloseDuringSteal(t *testing.T) {
	// Close racing an active steal storm: every queued task still runs
	// exactly once and Close returns.
	for round := 0; round < 10; round++ {
		e := NewExecutor(4, 256)
		ctx := context.Background()
		const tasks = 200
		var ran atomic.Int64
		for i := 0; i < tasks; i++ {
			if err := e.SubmitTo(ctx, 0, func() { ran.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
		e.Close() // must drain local deques and in-progress steals
		if ran.Load() != tasks {
			t.Fatalf("round %d: Close drained %d tasks, want %d", round, ran.Load(), tasks)
		}
	}
}

func TestExecutorSubmitWaitRacingClose(t *testing.T) {
	// SubmitWait concurrent with Close must always return — either its
	// tasks ran (pushed before the drain) or it got ErrClosed. A push
	// stranded after the workers' final sweep would hang the latch forever.
	for round := 0; round < 20; round++ {
		e := NewExecutor(2, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := e.SubmitWait(context.Background(), 3, func(int) Task { return func() {} })
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("SubmitWait = %v, want ErrClosed", err)
						}
						return
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		e.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("SubmitWait hung across Close")
		}
	}
}

func TestExecutorSubmitWaitTo(t *testing.T) {
	e := NewExecutor(3, 12)
	defer e.Close()
	ctx := context.Background()

	results := make([]int, 30)
	shards := make([]int, 30)
	err := e.SubmitWaitTo(ctx, 1, len(results), func(i int) ShardTask {
		return func(shard int) {
			results[i] = i * i
			shards[i] = shard
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
		if shards[i] < 0 || shards[i] >= e.NumShards() {
			t.Fatalf("task %d reported shard %d out of range", i, shards[i])
		}
	}
}

func TestExecutorPerShardBusyNanos(t *testing.T) {
	// The old executor kept one global busy counter; per-shard counters
	// must sum to the aggregate exactly (fake clock: 1 tick per reading).
	e := NewExecutor(2, 8)
	defer e.Close()
	var tick atomic.Int64
	e.clock = func() int64 { return tick.Add(1) }
	ctx := context.Background()

	if err := e.SubmitWait(ctx, 10, func(i int) Task { return func() {} }); err != nil {
		t.Fatal(err)
	}
	_, completed, busy := e.Stats()
	if completed != 10 {
		t.Fatalf("completed = %d, want 10", completed)
	}
	var sum int64
	for _, s := range e.ShardStats() {
		sum += s.BusyNanos
	}
	if sum != busy {
		t.Fatalf("per-shard busyNanos sum %d != aggregate %d", sum, busy)
	}
	if busy <= 0 {
		t.Fatalf("busyNanos = %d, want > 0", busy)
	}
}

func TestExecutorSubmitBlocksWhenFull(t *testing.T) {
	// One worker, depth-1 deque: with the worker wedged and the slot taken,
	// Submit must block until a pop frees space.
	e := NewExecutor(1, 1)
	defer e.Close()
	ctx := context.Background()
	gate := make(chan struct{})
	if err := e.Submit(ctx, func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	settle() // let the worker pick up the gate task
	if err := e.Submit(ctx, func() {}); err != nil {
		t.Fatal(err) // fills the single slot
	}
	submitted := make(chan error, 1)
	go func() { submitted <- e.Submit(ctx, func() {}) }()
	select {
	case err := <-submitted:
		t.Fatalf("Submit returned %v while every deque was full", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-submitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit did not unblock after space freed")
	}
}

func TestCompletionLatch(t *testing.T) {
	c := NewCompletion(3)
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- c.Wait(ctx) }()
	c.Done()
	c.Done()
	select {
	case <-done:
		t.Fatal("Wait returned before final Done")
	case <-time.After(10 * time.Millisecond):
	}
	c.Done()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after final Done")
	}
}
