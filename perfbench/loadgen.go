package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate per second over length, drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return due
		}
		due = append(due, d)
	}
}

// openResult is one open-loop segment's outcome per request.
type openResult struct {
	// Latency is from the request's due time to its completion, in ms:
	// a stall delays every request that fell due during it, and each
	// one's latency counts the whole wait (no coordinated omission).
	Latency []float64
	// Late is how long after its due time the generator handed the
	// request to a sender, in ms, not counting the wait for a free
	// sender. A generator that runs late measured itself.
	Late []float64
	Errs []error
}

// openLoop sends request i at start+due[i] through at most senders
// concurrent calls of send, whatever the server's pace, and waits for
// every request to finish.
func openLoop(start time.Time, due []time.Duration, senders int, send func(i int) error) openResult {
	res := openResult{
		Latency: make([]float64, len(due)),
		Late:    make([]float64, len(due)),
		Errs:    make([]error, len(due)),
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res.Errs[i] = send(i)
				res.Latency[i] = float64(time.Since(start)-due[i]) / 1e6
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res.Late[i] = float64(time.Since(start)-d) / 1e6
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}

// closedLoop runs senders clients back to back for length and returns
// how many calls completed and how many failed. Each client's k-th call
// is send(client, k).
func closedLoop(length time.Duration, senders int, send func(client, k int) error) (done, failed int, elapsed time.Duration) {
	start := time.Now()
	deadline := start.Add(length)
	counts := make([][2]int, senders)
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				if err := send(c, k); err != nil {
					counts[c][1]++
				} else {
					counts[c][0]++
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, c := range counts {
		done += c[0]
		failed += c[1]
	}
	return done, failed, elapsed
}
