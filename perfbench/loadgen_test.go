package main

import (
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stallServer answers at once, except that the request with ?stall=1
// holds every request for 100 ms.
type stallServer struct {
	mu       sync.Mutex
	start    time.Time
	stallEnd time.Duration
}

func (s *stallServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stall") == "1" {
		s.mu.Lock()
		time.Sleep(100 * time.Millisecond)
		s.stallEnd = time.Since(s.start)
		s.mu.Unlock()
		return
	}
	s.mu.Lock() // waits out a stall in progress
	s.mu.Unlock()
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	srv := &stallServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := newClient(2)
	defer cl.close()

	const step = 5 * time.Millisecond
	const stallAt = 10
	due := make([]time.Duration, 60)
	for i := range due {
		due[i] = time.Duration(i) * step
	}
	start := time.Now()
	srv.start = start
	res := openLoop(start, due, 2, func(i int) error {
		url := ts.URL
		if i == stallAt {
			url += "?stall=1"
		}
		resp, err := cl.hc.Get(url)
		if err == nil {
			resp.Body.Close()
		}
		return err
	})
	for i, err := range res.Errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	stallEnd := float64(srv.stallEnd) / 1e6
	if stallEnd < 100 {
		t.Fatalf("stall ended at %.1f ms, before it could have lasted 100 ms", stallEnd)
	}
	// Every request that fell due during the stall waited for its end,
	// and its latency counts that wait from its due time.
	inflated := 0
	for i := stallAt + 1; i < len(due); i++ {
		dueMs := float64(due[i]) / 1e6
		if dueMs >= stallEnd {
			break
		}
		inflated++
		if want := stallEnd - dueMs; res.Latency[i] < want-1 {
			t.Errorf("request %d due at %.0f ms: latency %.1f ms, want at least %.1f ms", i, dueMs, res.Latency[i], want)
		}
	}
	if inflated < 15 {
		t.Fatalf("only %d requests fell due during the stall", inflated)
	}
	// The first request due during the stall waited nearly all of it.
	if res.Latency[stallAt+1] < 90 {
		t.Errorf("request right after the stall began: latency %.1f ms, want about 95", res.Latency[stallAt+1])
	}
}

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewPCG(1, 2)), 300, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewPCG(1, 2)), 300, 10*time.Second)
	if len(a) != len(b) || len(a) < 2700 || len(a) > 3300 {
		t.Fatalf("schedule lengths %d and %d, want equal and about 3000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= 10*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("schedule differs or is out of order at %d", i)
		}
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	done, failed, elapsed := closedLoop(50*time.Millisecond, 2, func(c, k int) error {
		time.Sleep(time.Millisecond)
		mu.Lock()
		calls++
		mu.Unlock()
		return nil
	})
	if done != calls || failed != 0 || elapsed < 50*time.Millisecond {
		t.Fatalf("done %d of %d calls, failed %d, elapsed %v", done, calls, failed, elapsed)
	}
}
