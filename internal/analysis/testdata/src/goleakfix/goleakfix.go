// Package goleakfix is the goleak golden fixture: every launch-site
// shape the serving stack uses, plus the leaky variants the analyzer
// must catch.
package goleakfix

import (
	"context"
	"sync"
)

func process(item int) int { return item * 2 }

func worker() {}

// fireAndForget leaks: nothing joins the goroutine.
func fireAndForget() {
	go func() { // want `unjoined-goroutine`
		process(1)
	}()
}

// opaque launches a named function; the body is invisible here.
func opaque() {
	go worker() // want `opaque-goroutine`
}

// leakyWG calls Done on a local WaitGroup nobody Waits on.
func leakyWG() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `unjoined-goroutine`
		defer wg.Done()
		process(2)
	}()
}

// leakyChan sends on a local channel nobody receives from or returns.
func leakyChan() {
	results := make(chan int, 1)
	go func() { // want `unjoined-goroutine`
		results <- process(3)
	}()
}

// pool is the loadgen/repair worker-pool shape: counter join.
func pool(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			process(4)
		}()
	}
	wg.Wait()
}

// externalWG: the WaitGroup arrived from outside, so the waiter lives
// with the owner.
func externalWG(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		process(5)
	}()
}

// doneChannel: close received in scope.
func doneChannel() {
	done := make(chan struct{})
	go func() {
		process(6)
		close(done)
	}()
	<-done
}

// errChannel is the fixserve Serve shape: send received in a select.
func errChannel(stop chan struct{}) {
	errc := make(chan error, 1)
	go func() {
		errc <- nil
	}()
	select {
	case <-errc:
	case <-stop:
	}
}

// returnsChannel hands the join channel to the caller.
func returnsChannel() <-chan int {
	out := make(chan int)
	go func() {
		out <- process(7)
		close(out)
	}()
	return out
}

// closerPattern is the stream pipeline's shape: workers joined by a
// sibling closer goroutine, the closer joined by the done channel.
func closerPattern(items []int) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			process(8)
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	<-done
}

// ctxBound: request cancellation bounds the goroutine's lifetime.
func ctxBound(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				process(9)
			}
		}
	}()
}
