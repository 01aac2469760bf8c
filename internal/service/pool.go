package service

import (
	"context"
	"sync"

	"costdist"
)

// pool is the sharded worker pool behind every endpoint. Each shard
// owns a bounded task queue and a fixed set of workers, and every
// worker owns one costdist.Solver whose scratch arena is recycled
// across requests — the same allocation-free hot path SolveBatch uses,
// kept warm for the lifetime of the server — and whose cached grid
// every solve of the last seen shape is built on (Solver.Build).
// Requests shard by their cache digest, so repeated submissions of the
// same instance land on the same arena (already grown to that
// instance's working set).
type pool struct {
	shards []*shard
	ctx    context.Context
	wg     sync.WaitGroup
}

type shard struct {
	tasks chan func(*costdist.Solver)
}

// newPool starts shards×workersPerShard workers under ctx; cancelling
// ctx stops every worker after its current task.
func newPool(ctx context.Context, shards, workersPerShard, queueDepth int) *pool {
	p := &pool{ctx: ctx}
	for i := 0; i < shards; i++ {
		sh := &shard{tasks: make(chan func(*costdist.Solver), queueDepth)}
		p.shards = append(p.shards, sh)
		for w := 0; w < workersPerShard; w++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				solver := costdist.NewSolver()
				for {
					select {
					case <-ctx.Done():
						return
					case task := <-sh.tasks:
						task(solver)
					}
				}
			}()
		}
	}
	return p
}

// submit enqueues a task on the shard selected by key. It never blocks:
// a full shard queue returns false (the caller answers 503), and a
// stopped pool returns false as well.
func (p *pool) submit(key uint64, task func(*costdist.Solver)) bool {
	if p.ctx.Err() != nil {
		return false
	}
	sh := p.shards[key%uint64(len(p.shards))]
	select {
	case sh.tasks <- task:
		return true
	default:
		return false
	}
}

// depth is the number of queued-but-unclaimed tasks across all shards.
func (p *pool) depth() int {
	n := 0
	for _, sh := range p.shards {
		n += len(sh.tasks)
	}
	return n
}

// wait blocks until every worker has exited (call after cancelling the
// pool context).
func (p *pool) wait() { p.wg.Wait() }
