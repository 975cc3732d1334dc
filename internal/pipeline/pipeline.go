// Package pipeline schedules the staged ingestion path (DESIGN.md §13):
// a searcher goroutine speculates batch N+1's phase-1 closest-seed
// search against a snapshot-isolated view — and, when a WAL in group
// mode is attached, appends the batch's record to the group-commit queue
// — while the applier goroutine completes batch N's apply/maintain.
// Apply order is enforced by construction: tickets flow through a FIFO
// and a single applier consumes them in submission order, and the core
// revalidates every speculation against the live seed epoch before
// adopting it, so results are bit-identical to serial execution (the
// lockstep differential harness pins this).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/trace"
	"incbubbles/internal/wal"
)

// Common errors.
var (
	ErrClosed = errors.New("pipeline: scheduler is closed")
	// ErrStale fails every in-flight ticket behind a cleanly-failed one:
	// applying them would skip the failed batch. None of them consumed
	// anything (the failed batch's enqueue wrote nothing, later tickets
	// skip the WAL once their ordinal stamps disagree with it, and a
	// ticket not yet stamped when the failure hit is superseded before
	// it can touch anything), so the producer waits out every
	// outstanding ticket and then resubmits the failed batch and
	// everything after it, in order.
	ErrStale = errors.New("pipeline: batch superseded by an earlier failure; resubmit")
)

// Ticket tracks one submitted batch through the pipeline. Wait blocks
// until the batch has been applied (or failed); a context cancellation
// during Wait abandons only the waiting — the batch stays in flight and
// a later Wait observes its final outcome, which is what makes a
// cancelled commit retryable rather than lost.
type Ticket struct {
	batch      dataset.Batch
	sched      *Scheduler
	ordinal    int
	superseded bool // a clean failure intervened before stamping
	spec       *core.Speculation
	enqErr     error
	// sp is the request-scoped span captured from Submit's context (nil
	// when the producer is not traced). The searcher and applier carry it
	// in the contexts they pass down so the batch's core/WAL spans parent
	// under the serving layer's server.ingest root. Starting children on
	// it from those goroutines is race-free: child starts read only the
	// span's immutable identity, and the producer keeps the span open
	// until the ticket's outcome is observed.
	sp *trace.Span

	done     chan struct{}
	stats    core.BatchStats
	view     *core.ReadView // non-nil iff the batch applied
	err      error
	observed atomic.Bool
}

// Batch returns the submitted batch (for resubmission after a clean
// failure).
func (t *Ticket) Batch() dataset.Batch { return t.batch }

// Applied reports whether the batch was absorbed by the summarizer (its
// batch counter advanced past the ticket's ordinal). Valid once the
// ticket is done. A ticket can finish with Applied()==true AND a non-nil
// error — the batch committed but its trailing async checkpoint failed
// (wal.ErrCheckpointRetryable) — and such a batch must NOT be
// resubmitted: it is applied and durable, only the checkpoint will be
// retried at the next cadence.
func (t *Ticket) Applied() bool { return t.view != nil }

// View returns the read view the applier captured right after applying
// the ticket's batch — the summary at exactly this batch's boundary,
// with View().Applied-1 its ordinal. Valid once the ticket is done; nil
// exactly when the batch did not apply. The producer cannot take such
// a view itself: by the time Wait returns, the applier may already be
// applying the next ticket.
func (t *Ticket) View() *core.ReadView { return t.view }

// Done reports whether the ticket has completed without blocking.
func (t *Ticket) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the batch completes and returns its result. If ctx
// is cancelled first, Wait returns ctx.Err() and the batch REMAINS in
// flight — call Wait again to pick up the outcome.
func (t *Ticket) Wait(ctx context.Context) (core.BatchStats, error) {
	select {
	case <-t.done:
		t.observe()
		return t.stats, t.err
	case <-ctx.Done():
		return core.BatchStats{}, ctx.Err()
	}
}

// observe retires the ticket's outstanding slot the first time its real
// outcome is returned to a waiter. A ctx-cancelled Wait does not
// observe: the producer has not seen the result, so the ticket still
// gates a stalled stamp clock.
func (t *Ticket) observe() {
	if t.observed.CompareAndSwap(false, true) {
		t.sched.release()
	}
}

func (t *Ticket) finish(stats core.BatchStats, err error) {
	t.stats, t.err = stats, err
	close(t.done)
}

// ctx returns a fresh background context carrying the ticket's request
// span, if any. The pipeline stages deliberately run detached from the
// producer's cancellable context (a submitted batch always runs to
// completion), but the trace parentage still rides along.
func (t *Ticket) ctx() context.Context {
	if t.sp == nil {
		return context.Background()
	}
	return trace.ContextWith(context.Background(), t.sp)
}

// Config tunes a Scheduler.
type Config struct {
	// Replay makes the applier execute each submitted batch against the
	// summarizer's database (dataset.Batch.Replay) immediately before
	// applying it. Producers then submit recorded template batches and
	// never touch the database themselves, which is what allows batch
	// N+1's speculation to truly overlap batch N's apply. When false,
	// submitted batches must already be applied to the database and the
	// producer must not mutate the database while a ticket is in flight
	// (stream.Window's single-inflight discipline).
	Replay bool
}

// Scheduler runs the two pipeline stages. Submit and Close must be
// called from one producer goroutine; Wait may be called from anywhere.
type Scheduler struct {
	s      *core.Summarizer
	log    *wal.Log // nil for a non-durable pipeline
	tracer *trace.Tracer
	gmax   int
	replay bool

	submitCh chan *Ticket
	readyCh  chan *Ticket

	// view is the current speculation snapshot; the applier replaces it
	// after any batch that moved the seed epoch.
	view atomic.Pointer[core.SearchView]

	// ordMu guards the stamp clock. nextOrd is the searcher's ordinal
	// stamp for speculation and enqueue. A clean failure stalls the
	// clock, and the stall holds until every outstanding ticket —
	// counted from Submit entry, including submissions still blocked on
	// backpressure — has had its outcome observed by a Wait; only then
	// does nextOrd re-arm at the live batch counter. This is what
	// upholds the apply-order invariant across a failure: any ticket
	// the producer submitted before observing the failure (even one
	// whose Submit call had not yet begun when the failed ticket
	// finished) must never be stamped with the freed ordinal — it would
	// pass the applier's ordinal check and be applied (and WAL-logged)
	// in place of the failed batch. Observation is the barrier because
	// a producer that has not yet Waited out the failure cannot tell a
	// resubmission from a continuation: draining every outstanding
	// ticket is exactly the producer's resubmission contract, so the
	// first Submit after the stall clears is the failed batch itself.
	// Tickets reaching the searcher while stalled are marked superseded
	// and failed with ErrStale.
	ordMu       sync.Mutex
	nextOrd     int
	stalled     bool
	outstanding int

	mu     sync.Mutex
	err    error // sticky fatal failure; clean per-ticket failures do not set it
	closed bool

	searcherDone chan struct{}
	applierDone  chan struct{}
}

// New starts a scheduler over a summarizer built with Options.Pipeline
// (Depth ≥ 1). log is optional; when given it must have group commit
// enabled — the pipeline's ack barrier is the group fsync.
func New(s *core.Summarizer, log *wal.Log, cfg Config) (*Scheduler, error) {
	po := s.PipelineConfigured()
	if po == nil {
		return nil, core.ErrNotPipelined
	}
	if po.Depth < 1 {
		return nil, errors.New("pipeline: Options.Pipeline.Depth must be ≥ 1 (0 is the serial oracle)")
	}
	if log != nil && log.GroupCommitMax() <= 0 {
		return nil, errors.New("pipeline: attached WAL must enable group commit (wal.Options.GroupCommit > 0)")
	}
	view, err := s.NewSearchView()
	if err != nil {
		return nil, err
	}
	p := &Scheduler{
		s:            s,
		log:          log,
		tracer:       s.Tracer(),
		replay:       cfg.Replay,
		submitCh:     make(chan *Ticket, po.Depth),
		readyCh:      make(chan *Ticket, po.Depth),
		searcherDone: make(chan struct{}),
		applierDone:  make(chan struct{}),
	}
	if log != nil {
		p.gmax = log.GroupCommitMax()
	}
	p.view.Store(view)
	p.nextOrd = s.Batches()
	go p.searcher()
	go p.applier()
	return p, nil
}

// Submit enqueues one applied batch. It blocks while the pipeline is at
// depth (backpressure); ctx aborts only the enqueue attempt. Once Submit
// returns a Ticket the batch runs to completion regardless of any
// context — durability acks are never abandoned halfway.
func (p *Scheduler) Submit(ctx context.Context, batch dataset.Batch) (*Ticket, error) {
	p.mu.Lock()
	closed, sticky := p.closed, p.err
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if sticky != nil {
		return nil, fmt.Errorf("pipeline: stopped by earlier failure: %w", sticky)
	}
	t := &Ticket{batch: batch, sched: p, done: make(chan struct{}), sp: trace.FromContext(ctx)}
	p.ordMu.Lock()
	p.outstanding++
	p.ordMu.Unlock()
	select {
	case p.submitCh <- t:
		return t, nil
	case <-ctx.Done():
		p.release()
		return nil, ctx.Err()
	}
}

// release retires one outstanding ticket and, once every ticket
// outstanding at a clean failure has been observed, clears the stall
// and re-arms the stamp clock at the live batch counter. Reading
// Batches here is race-free: a ticket stays outstanding until a waiter
// observes its outcome, so outstanding == 0 means the pipeline is
// empty, the applier idle, and every apply ordered before this release
// by the observed ticket's done channel and ordMu.
func (p *Scheduler) release() {
	p.ordMu.Lock()
	p.outstanding--
	if p.stalled && p.outstanding == 0 {
		p.stalled = false
		p.nextOrd = p.s.Batches()
	}
	p.ordMu.Unlock()
}

// Err returns the sticky fatal error that stopped the pipeline, if any.
func (p *Scheduler) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *Scheduler) setFatal(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Close drains the pipeline — every submitted batch completes — and
// stops both stages, then waits out any in-flight async checkpoint and
// surfaces its failure (a checkpoint that dies after the last batch has
// no later AfterApply to report through). It returns the sticky fatal
// error first, the checkpoint error otherwise. The attached log is NOT
// closed (and its enqueued-but-never-acked records are NOT flushed: no
// ack was released for them, so on a resume they are free to land on
// either side, exactly like a crash).
func (p *Scheduler) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return p.err
	}
	p.closed = true
	p.mu.Unlock()
	close(p.submitCh)
	<-p.searcherDone
	<-p.applierDone
	err := p.Err()
	if p.log != nil {
		if aerr := p.log.AsyncBarrier(); aerr != nil && err == nil {
			err = fmt.Errorf("pipeline: async checkpoint: %w", aerr)
		}
	}
	return err
}

// searcher is stage 1: in submission order, speculate the batch's
// phase-1 search against the current view, append its WAL record to the
// group queue, and flush the queue at every gmax boundary.
func (p *Scheduler) searcher() {
	defer close(p.searcherDone)
	defer close(p.readyCh)
	for t := range p.submitCh {
		// Stamp atomically with the stall check: while a clean failure
		// is draining, no ticket may receive the freed ordinal (it
		// would usurp the failed batch's slot) — and a ticket reaching
		// the searcher during the stall is by definition one the
		// producer submitted before observing the failure.
		p.ordMu.Lock()
		if p.stalled {
			t.superseded = true
			p.ordMu.Unlock()
			p.readyCh <- t
			continue
		}
		ord := p.nextOrd
		t.ordinal = ord
		p.nextOrd++
		p.ordMu.Unlock()
		if p.Err() == nil {
			if spec, err := p.view.Load().Speculate(t.ctx(), ord, t.batch); err == nil {
				t.spec = spec
			}
			// A speculation error is dropped, not fatal: the live
			// search reproduces (and properly reports) it at apply.
			if p.log != nil {
				p.enqueue(t)
			}
		}
		p.readyCh <- t
	}
}

// enqueue appends the ticket's record to the group-commit queue and
// flushes at the gmax boundary. The watermark guard skips the append
// when the stamp disagrees with the log (after a clean failure rewound
// ordinals): the applier's BeforeApply then falls back to the serial
// append-and-sync for that batch, which is always correct.
func (p *Scheduler) enqueue(t *Ticket) {
	if uint64(t.ordinal) != p.log.NextAppendOrdinal() {
		return
	}
	if err := p.log.Enqueue(t.ctx(), uint64(t.ordinal), t.batch); err != nil {
		t.enqErr = err
		return
	}
	if p.log.PendingEnqueued() >= p.gmax {
		if err := p.log.Flush(t.ctx()); err != nil {
			t.enqErr = err
		}
	}
}

// applier is stage 2: in order, apply each batch (adopting its
// speculation when still valid), refresh the speculation view after any
// seed movement, and kick off due checkpoints asynchronously at the
// batch boundary. The core.pipeline.stall span measures how long the
// applier sat idle waiting for stage 1 — the pipeline's bubble time.
func (p *Scheduler) applier() {
	defer close(p.applierDone)
	for {
		sp := p.tracer.Start("core.pipeline.stall")
		t, ok := <-p.readyCh
		sp.End()
		if !ok {
			return
		}
		if err := p.Err(); err != nil {
			t.finish(core.BatchStats{}, fmt.Errorf("pipeline: aborted by earlier failure: %w", err))
			continue
		}
		if t.superseded {
			// An earlier ticket failed cleanly before this one was
			// stamped; it was never speculated, enqueued or stamped, and
			// applying it would skip the failed batch. The stall is
			// already active, so this is a plain drain, not a new
			// failure.
			t.finish(core.BatchStats{}, fmt.Errorf("%w (superseded before stamping, applied %d)", ErrStale, p.s.Batches()))
			continue
		}
		if t.enqErr != nil {
			p.failClean(t, fmt.Errorf("pipeline: batch %d not durable: %w", t.ordinal, t.enqErr))
			continue
		}
		if t.ordinal != p.s.Batches() {
			// Stamped before an earlier ticket failed and rewound the
			// ordinal clock: applying it would skip the failed batch.
			p.failClean(t, fmt.Errorf("%w (batch %d, applied %d)", ErrStale, t.ordinal, p.s.Batches()))
			continue
		}
		batch := t.batch
		if p.replay {
			var rerr error
			if batch, rerr = t.batch.Replay(p.s.DB()); rerr != nil {
				err := fmt.Errorf("pipeline: batch %d replay: %w", t.ordinal, rerr)
				p.setFatal(err)
				t.finish(core.BatchStats{}, err)
				continue
			}
		}
		stats, err := p.s.ApplyBatchPipelined(t.ctx(), batch, t.spec)
		if p.s.Batches() == t.ordinal+1 {
			// The same quiescent boundary the async checkpoint below
			// encodes: capture the readers' view of it here, on the
			// goroutine that owns the summary, even when a trailing
			// fault follows — an applied batch is acked with its view.
			sp := t.sp.Start("core.read_view")
			t.view = p.s.ReadView()
			sp.End()
		}
		if err != nil {
			switch {
			case t.Applied() && errors.Is(err, wal.ErrCheckpointRetryable):
				// The batch committed (the counter advanced) and only
				// its trailing async checkpoint failed — non-poisoning,
				// and the cadence is re-armed (wal.group), exactly the
				// failure serial mode retries at the next boundary.
				// Report it on the ticket without stopping the pipeline;
				// Applied() tells the producer not to resubmit.
				p.refreshView()
				t.finish(stats, err)
			case !p.replay && p.s.Batches() == t.ordinal && (p.log == nil || p.log.Poisoned() == nil):
				// The database may already carry the batch; only a
				// failure that provably consumed nothing is retryable.
				p.failClean(t, err)
			default:
				p.setFatal(err)
				t.finish(core.BatchStats{}, err)
			}
			continue
		}
		p.refreshView()
		if p.log != nil && p.log.CheckpointDue() {
			if cerr := p.log.StartAsyncCheckpoint(p.s); cerr != nil {
				err := fmt.Errorf("pipeline: async checkpoint: %w", cerr)
				if !errors.Is(cerr, wal.ErrCheckpointRetryable) {
					p.setFatal(err)
				}
				t.finish(stats, err)
				continue
			}
		}
		t.finish(stats, nil)
	}
}

// refreshView replaces the speculation snapshot after a batch that moved
// the seed epoch. On a snapshot error the stale view is kept:
// speculations against it are rejected at apply time, which is merely
// the serial path.
func (p *Scheduler) refreshView() {
	if v := p.view.Load(); v.Epoch() != p.s.Set().SeedEpoch() {
		if nv, verr := p.s.NewSearchView(); verr == nil {
			p.view.Store(nv)
		}
	}
}

// failClean fails one ticket without stopping the pipeline: the batch
// consumed nothing (not applied, not durable), so the stamp clock
// stalls — superseding every ticket submitted before the producer could
// observe the failure, so none of them can claim the freed slot — and
// clears only once a waiter has observed every one of them, after which
// a resubmission of the same batch retries at the rewound ordinal.
// Escalate to fatal if the log turned out poisoned (no later batch can
// commit) or the error is a simulated crash — the failpoint convention
// is fail-stop: the process is dead at that point and must not retry,
// even when the failed write provably left nothing behind.
func (p *Scheduler) failClean(t *Ticket, err error) {
	if errors.Is(err, failpoint.ErrCrash) || (p.log != nil && p.log.Poisoned() != nil) {
		p.setFatal(err)
	} else {
		p.ordMu.Lock()
		p.stalled = true
		p.ordMu.Unlock()
	}
	t.finish(core.BatchStats{}, err)
}
