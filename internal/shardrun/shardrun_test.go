package shardrun

import (
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryTaskAndBarriers(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var ran [8]atomic.Int32
	tasks := make([]func(), len(ran))
	for i := range tasks {
		i := i
		tasks[i] = func() { ran[i].Add(1) }
	}
	// Several batches, as Network.Step runs one per cycle: the pool's one
	// barrier must serve each in turn.
	for batch := int32(1); batch <= 4; batch++ {
		p.Run(tasks)
		// Run is a full barrier: every task must be visibly done on return.
		for i := range ran {
			if got := ran[i].Load(); got != batch {
				t.Fatalf("batch %d: task %d had run %d times when Run returned", batch, i, got)
			}
		}
	}
}

func TestPoolSingleTaskRunsInline(t *testing.T) {
	// A one-task batch must not touch the workers at all, so it works even
	// on a closed pool.
	p := NewPool(1)
	p.Close()
	ran := false
	p.Run([]func(){func() { ran = true }})
	if !ran {
		t.Error("single task did not run")
	}
	p.Run(nil) // empty batch is a no-op
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // second close must not panic on the closed channel
}

func TestPoolRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](4)
	for round := 0; round < 3; round++ { // wrap the buffer a few times
		for i := 0; i < 4; i++ {
			r.Push(round*4 + i)
		}
		if r.Len() != 4 {
			t.Fatalf("Len = %d after 4 pushes, want 4", r.Len())
		}
		for i := 0; i < 4; i++ {
			if got := r.Pop(); got != round*4+i {
				t.Fatalf("Pop = %d, want %d", got, round*4+i)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("Len = %d after drain, want 0", r.Len())
		}
	}
}

func TestRingCapacityRoundsUp(t *testing.T) {
	r := NewRing[int](5) // rounds up to 8
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	if r.Len() != 8 {
		t.Errorf("ring holds %d, want rounded-up capacity 8", r.Len())
	}
}

func TestRingOverflowPanics(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	r.Push(2)
	defer func() {
		if recover() == nil {
			t.Error("push into a full ring did not panic")
		}
	}()
	r.Push(3)
}

func TestRingUnderflowPanics(t *testing.T) {
	r := NewRing[int](2)
	defer func() {
		if recover() == nil {
			t.Error("pop from an empty ring did not panic")
		}
	}()
	r.Pop()
}

func TestRingDropsReferences(t *testing.T) {
	// Pop must zero the vacated slot so the ring does not pin packet memory.
	r := NewRing[*int](2)
	v := 42
	r.Push(&v)
	r.Pop()
	if r.buf[0] != nil {
		t.Error("Pop left a live reference in the buffer")
	}
}
