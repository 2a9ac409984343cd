package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRecoversPanicInline(t *testing.T) {
	err := ForEach(context.Background(), 1, 4, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T %v", err, err)
	}
	if pe.Index != 2 || pe.Value != "boom" {
		t.Fatalf("PanicError fields: %+v", pe)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatal("PanicError missing stack")
	}
	if !strings.Contains(pe.Error(), "item 2 panicked: boom") {
		t.Fatalf("Error(): %q", pe.Error())
	}
}

func TestForEachRecoversPanicWorkers(t *testing.T) {
	var ran atomic.Int64
	err := ForEach(context.Background(), 4, 64, func(i int) error {
		ran.Add(1)
		if i == 5 {
			panic(errors.New("kernel crash"))
		}
		// Every other item takes a millisecond, so the panic is recorded
		// long before the other workers could drain the rest: instant
		// items let them finish all 64 while the panic is being recovered.
		time.Sleep(time.Millisecond)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T %v", err, err)
	}
	if pe.Index != 5 {
		t.Fatalf("panic index %d, want 5", pe.Index)
	}
	if ran.Load() == 64 {
		t.Fatal("pool did not stop after panic")
	}
}

// Lowest-index contract: when both a panic and an ordinary error occur,
// the lower index wins regardless of which goroutine finished first.
func TestPanicKeepsLowestIndexContract(t *testing.T) {
	sentinel := errors.New("plain failure")
	err := ForEach(context.Background(), 2, 2, func(i int) error {
		if i == 0 {
			time.Sleep(10 * time.Millisecond)
			return sentinel
		}
		panic("late item panics first")
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want lowest-index error %v, got %v", sentinel, err)
	}
}

func TestMapRecoversPanic(t *testing.T) {
	out, err := Map(context.Background(), 2, 8, func(i int) (int, error) {
		if i == 3 {
			panic("map boom")
		}
		return i * i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("want *PanicError at 3, got %v", err)
	}
	if len(out) != 8 {
		t.Fatalf("out length %d", len(out))
	}
}

// ForEachCtx hands the pool's ctx to items so a long-running item can
// observe a mid-run cancellation itself — the satellite contract: plain
// ForEach only checks ctx between claims.
func TestForEachCtxMidItemCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	err := ForEachCtx(ctx, 4, 4, func(ctx context.Context, i int) error {
		started <- struct{}{}
		if i == 0 {
			cancel()
			return nil
		}
		// A "long-running" item: loops until it observes cancellation via
		// its own ctx, or times out the test.
		deadline := time.Now().Add(5 * time.Second)
		for ctx.Err() == nil {
			if time.Now().After(deadline) {
				return errors.New("item never observed cancellation")
			}
			time.Sleep(time.Millisecond)
		}
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(started) == 0 {
		t.Fatal("no items started")
	}
}

func TestMapCtxPassesContext(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	out, err := MapCtx(ctx, 1, 3, func(ctx context.Context, i int) (string, error) {
		s, _ := ctx.Value(key{}).(string)
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if s != "v" {
			t.Fatalf("item %d did not receive pool ctx", i)
		}
	}
}
