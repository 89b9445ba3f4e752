package main

import (
	"sync"
	"time"
)

// now reads the wall clock. It is the benchmark's only clock read: the
// simulation packages are barred from the wall clock, so every timing in
// this program goes through here.
func now() time.Time {
	//airlint:allow determinism the benchmark measures host time; simulated runs never see this clock
	return time.Now()
}

// concurrently runs fn(0), ..., fn(n-1) on n goroutines and returns once
// all of them have returned. It is the benchmark's only goroutine site;
// the live workload uses it for its concurrent sessions.
func concurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup //airlint:allow confinement joins the live workload's session goroutines before the pass ends
	wg.Add(n)
	for i := 0; i < n; i++ {
		//airlint:allow confinement one goroutine per live session, joined by the WaitGroup above
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
