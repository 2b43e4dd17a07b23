package serve

import (
	"fmt"
	"log"

	"repro/internal/mat"
)

// batcher coalesces concurrent clients' query workloads on one dataset
// into panel batches by natural batching, as in group commit: the loop
// blocks for the first request, takes without waiting whatever else is
// already queued (up to maxBatch), answers that batch with one MatMat
// panel pass and repeats. Requests that arrive while a batch is being
// solved or answered queue up and form the next batch, so batches grow
// with load on their own and a lone client never waits on a timer.
type batcher struct {
	d    *Dataset
	in   chan *queryReq
	quit chan struct{}
	done chan struct{}
}

// maxBatch caps the client requests answered by one panel pass.
const maxBatch = 64

type queryReq struct {
	ranges []mat.Range1D
	resp   chan queryResp
}

type queryResp struct {
	result QueryResult
	err    error
}

func newBatcher(d *Dataset) *batcher {
	b := &batcher{
		d:    d,
		in:   make(chan *queryReq, 256),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// submit enqueues a workload and blocks for its batch's answer.
func (b *batcher) submit(ranges []mat.Range1D) (QueryResult, error) {
	req := &queryReq{ranges: ranges, resp: make(chan queryResp, 1)}
	select {
	case b.in <- req:
	case <-b.quit:
		return QueryResult{}, ErrBatcherStopped
	}
	select {
	case r := <-req.resp:
		return r.result, r.err
	case <-b.done:
		// The loop exited while we were queued; the final drain may still
		// have answered us (resp is buffered).
		select {
		case r := <-req.resp:
			return r.result, r.err
		default:
			return QueryResult{}, ErrBatcherStopped
		}
	}
}

// stop drains pending requests and shuts the loop down.
func (b *batcher) stop() {
	close(b.quit)
	<-b.done
}

func (b *batcher) loop() {
	defer close(b.done)
	batch := make([]*queryReq, 0, maxBatch)
	for {
		select {
		case req := <-b.in:
			batch = append(batch[:0], req)
		case <-b.quit:
			b.drain(nil)
			return
		}
	fill:
		for len(batch) < maxBatch {
			select {
			case req := <-b.in:
				batch = append(batch, req)
			default:
				break fill
			}
		}
		b.answerBatchSafe(batch)
		clear(batch) // let answered workloads be collected while the loop idles
	}
}

// answerBatchSafe shields the batcher goroutine from a panicking batch.
// Before this guard, one poisoned request killed the loop and every
// later query on the dataset failed with "batcher stopped" while the
// server stayed up. Now the panic is confined to the batch: its
// unanswered requests get the panic as an error and the loop keeps
// serving.
func (b *batcher) answerBatchSafe(batch []*queryReq) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err := fmt.Errorf("%w: %v", ErrBatchPanic, r)
		log.Printf("serve: dataset %q: recovered query-batch panic: %v", b.d.name, r)
		for _, req := range batch {
			// Requests answered before the panic already hold their
			// response (resp is buffered, one send per request); only the
			// rest get the error.
			select {
			case req.resp <- queryResp{err: err}:
			default:
			}
		}
	}()
	b.d.answerBatch(batch)
}

// drain answers everything still queued (plus the partial batch) before
// shutdown, so no client blocks forever.
func (b *batcher) drain(batch []*queryReq) {
	for {
		select {
		case req := <-b.in:
			batch = append(batch, req)
		default:
			if len(batch) > 0 {
				b.answerBatchSafe(batch)
			}
			return
		}
	}
}
