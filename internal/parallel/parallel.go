// Package parallel is the suite's shared worker-pool layer: bounded
// fan-out of independent work items across goroutines, used to run
// partition slices (partition.Plan.RunParallel), benchmark simulations
// (stats.ObserveSegmentsParallelHooked), and the experiment harnesses
// (experiments.TableI–TableIV) on every core instead of one.
//
// The package exists because automata workloads are embarrassingly
// parallel across connected components — components share no edges, so
// nothing an engine does for one can affect another — and the same holds
// one level up for the suite's independent benchmark kernels. All that is
// needed is a disciplined way to fan out and a deterministic way to merge,
// which this package and its callers provide.
//
// # Determinism contract
//
// ForEach and Map guarantee, for every workers value including 1:
//
//   - fn is invoked exactly once per index in [0, n) (unless an earlier
//     item failed or ctx was cancelled, in which case unstarted items are
//     skipped);
//   - results land at their own index, so output order never depends on
//     scheduling;
//   - the returned error is the one from the lowest-index failed item,
//     not whichever goroutine lost the race.
//
// Item functions run concurrently when workers > 1; they must not share
// mutable state except through their own index. With workers == 1
// everything runs inline on the caller's goroutine in index order — the
// exact sequential behaviour, with no goroutines spawned.
//
// # Panic isolation
//
// A panic inside an item function is recovered at the worker boundary and
// converted to a *PanicError carrying the panic value, the item index,
// and the goroutine stack. It then follows the normal error path
// (lowest-index wins, no new items start), so one crashing kernel fails
// its row instead of the process. This holds on the inline workers == 1
// path too.
//
// # Cancellation observability
//
// ForEach checks ctx only between item claims; a long-running item will
// not observe a mid-run cancellation by itself. Items that stream large
// inputs should use ForEachCtx, which hands the same ctx to each item so
// it can check ctx.Err() (or thread it into a guard.Governor) at its own
// chunk boundaries.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: values <= 0 mean "one worker
// per CPU" (runtime.NumCPU()). Callers expose this as the -j flag default.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// PanicError is a panic recovered at the worker boundary: the item index
// that panicked, the recovered value, and the stack captured at recovery.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v", e.Index, e.Value)
}

// safeCall invokes fn(ctx, i), converting a panic into a *PanicError.
func safeCall(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines.
//
// On failure, no new items are started and the error of the lowest-index
// failed item is returned; in-flight items finish first. A panicking item
// fails with a *PanicError instead of crashing the process. If ctx is
// cancelled before all items run, unstarted items are skipped and
// ctx.Err() is returned (an item error still takes precedence). With
// workers == 1 (or n == 1) items run inline in index order and the first
// error returns immediately, matching a plain sequential loop.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachCtx(ctx, workers, n, func(_ context.Context, i int) error {
		return fn(i)
	})
}

// ForEachCtx is ForEach for items that want to observe cancellation
// mid-item: fn receives the pool's ctx so a streaming item can check
// ctx.Err() at its own chunk boundaries instead of only between claims.
// All other semantics (ordering, lowest-index error, panic isolation)
// are identical to ForEach.
func ForEachCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeCall(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64 // next index to claim
		stop atomic.Bool  // set on first error or cancellation
		mu   sync.Mutex
		errI = -1 // lowest failed index
		errV error
	)
	record := func(i int, err error) {
		mu.Lock()
		if errI == -1 || i < errI {
			errI, errV = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := safeCall(ctx, i, fn); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errV != nil {
		return errV
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results indexed by i. Error and cancellation semantics are
// those of ForEach; on a non-nil error the returned slice holds the
// results of the items that did complete (zero values elsewhere).
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(ctx, workers, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map with ForEachCtx's mid-item cancellation observability.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
