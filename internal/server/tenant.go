package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/pipeline"
	"incbubbles/internal/retry"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/wal"
)

// configFile and walSubdir lay out a tenant directory:
// <root>/<name>/tenant.json + <root>/<name>/wal/.
const (
	configFile = "tenant.json"
	walSubdir  = "wal"
)

// ingestReq is one admitted batch travelling from an HTTP handler to
// the tenant worker. done is buffered so the worker's reply never
// blocks on a handler that gave up waiting.
type ingestReq struct {
	ctx   context.Context
	batch dataset.Batch
	done  chan ingestResult

	// admitted is stamped by Admit; the worker measures the queue wait
	// against it at dequeue and carries it into the reply so the HTTP
	// layer can log it and stamp it on the request's trace span.
	admitted time.Time
	wait     time.Duration
}

type ingestResult struct {
	ordinal   int
	stats     core.BatchStats
	firstID   *uint64 // first server-assigned insert ID, nil if no inserts
	warning   string  // non-fatal trailing error (retryable checkpoint)
	err       error
	queueWait time.Duration
}

func (r *ingestReq) reply(res ingestResult) {
	res.queueWait = r.wait
	r.done <- res
}

// degraded is the machine-readable read-only marker of the degradation
// ladder's bottom rung.
type degraded struct {
	Reason string // stable reason code, e.g. "wal_poisoned"
	Cause  string // human-readable underlying error
}

// TenantStatus is the externally visible state of one tenant.
type TenantStatus struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Applied  int    `json:"applied"`
	Points   int    `json:"points"`
	Bubbles  int    `json:"bubbles"`
	Dim      int    `json:"dim"`
	Resumed  bool   `json:"resumed"`
	ReadOnly bool   `json:"read_only"`
	Reason   string `json:"reason,omitempty"`
	Cause    string `json:"cause,omitempty"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	Pipeline int    `json:"pipeline_depth"`
	// LastCheckpointAgeSeconds is the age of the tenant's newest durable
	// checkpoint, -1 before the first one completes in this process.
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"`
}

// tenantMetrics holds the serving layer's per-tenant metric handles,
// resolved once at construction so every family is present in the
// registry (and therefore in a /metrics scrape) from the tenant's first
// breath, not only after its first observation.
type tenantMetrics struct {
	queueDepth   *telemetry.Gauge
	queueWait    *telemetry.Histogram
	applySeconds *telemetry.Histogram
	httpRequests *telemetry.Counter
	httpSeconds  *telemetry.Histogram
	http429      *telemetry.Counter
	http503      *telemetry.Counter
}

func newTenantMetrics(sink *telemetry.Sink) tenantMetrics {
	return tenantMetrics{
		queueDepth:   sink.Gauge(telemetry.MetricServerQueueDepth),
		queueWait:    sink.Histogram(telemetry.MetricServerQueueWaitSeconds, telemetry.SecondsBounds()),
		applySeconds: sink.Histogram(telemetry.MetricServerApplySeconds, telemetry.SecondsBounds()),
		httpRequests: sink.Counter(telemetry.MetricServerHTTPRequests),
		httpSeconds:  sink.Histogram(telemetry.MetricServerHTTPSeconds, telemetry.SecondsBounds()),
		http429:      sink.Counter(telemetry.MetricServerHTTP429),
		http503:      sink.Counter(telemetry.MetricServerHTTP503),
	}
}

type tenant struct {
	name    string
	dir     string
	cfg     TenantConfig
	seed    int64
	resumed bool

	sink    *telemetry.Sink
	tracer  *trace.Tracer
	logger  *slog.Logger
	metrics tenantMetrics

	// Worker-owned (only the worker goroutine touches these after
	// start(); readers go through read).
	db    *dataset.DB
	sum   *core.Summarizer
	log   *wal.Log
	sched *pipeline.Scheduler // nil in serial mode

	// nextID and live shadow the database's ID allocator and live-record
	// set on the worker side. The worker stamps server-assigned insert
	// IDs and validates deletes against them before a batch ever reaches
	// Replay — in pipelined mode the scheduler replays batches itself
	// while the worker is already preparing the next one, so a malformed
	// batch caught at replay time would be a fatal pipeline fault; caught
	// here it is just a rejected request.
	nextID dataset.PointID
	live   map[dataset.PointID]struct{}

	// admitMu guards the check-then-send on queue against closeQueue:
	// a send may otherwise race the close and panic.
	admitMu     sync.RWMutex
	queueClosed bool
	queue       chan *ingestReq

	// read is the snapshot read queries serve from: a core.ReadView
	// captured by the goroutine that owns the summary at a batch
	// boundary — the serial worker after each applied batch, the
	// pipeline applier on each applied ticket. Readers never touch the
	// live summarizer, so a poisoned or busy tenant keeps serving its
	// last-good summary.
	read     atomic.Pointer[core.ReadView]
	degrade  atomic.Pointer[degraded]
	workerWG sync.WaitGroup
	finalErr error // set by the worker's finalization, read after drain

	// gate, when non-nil (tests only), is received from once per
	// admitted request before the worker processes it, making
	// queue-overflow and cancellation timing deterministic.
	gate chan struct{}
}

// await blocks on the test pacing gate, if installed.
func (t *tenant) await() {
	if t.gate != nil {
		//lint:allow ctxflow test-only pacing seam, never set in production
		<-t.gate
	}
}

// dequeued samples the observability series the worker owns, right as it
// picks a request off the queue: the request's admission wait and the
// queue depth left behind it. Worker-side sampling keeps the hot HTTP
// path free of histogram work and needs no extra synchronization — the
// single worker is the only writer.
func (t *tenant) dequeued(req *ingestReq) {
	req.wait = time.Since(req.admitted)
	t.metrics.queueWait.Observe(req.wait.Seconds())
	t.metrics.queueDepth.Set(float64(len(t.queue)))
}

// newTenant opens (or resumes) the tenant's durable state. The worker
// is not started yet — start() does, after the server registers it.
// opts carries the server-wide observability wiring (logger, tracing,
// failpoints); the tenant-specific knobs come from cfg.
func newTenant(name, dir string, cfg TenantConfig, seed int64, opts Options) (*tenant, error) {
	fp := opts.Failpoints
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	onDisk, err := loadTenantConfig(dir)
	switch {
	case err == nil:
		if onDisk.Dim != cfg.Dim {
			return nil, fmt.Errorf("%w: dim %d, durable state has %d", ErrConfigMismatch, cfg.Dim, onDisk.Dim)
		}
		if onDisk.Bubbles != cfg.Bubbles {
			return nil, fmt.Errorf("%w: bubbles %d, durable state has %d", ErrConfigMismatch, cfg.Bubbles, onDisk.Bubbles)
		}
	case errors.Is(err, os.ErrNotExist):
		persist := cfg
		persist.Bootstrap = nil // checkpointed, not config
		if err := saveTenantConfig(dir, persist); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	tracer := opts.Tracer
	if tracer == nil && opts.TraceCapacity >= 0 {
		tracer = trace.New(trace.Options{Capacity: opts.TraceCapacity})
	}
	logger := opts.Logger
	if logger == nil {
		logger = discardLogger()
	}
	t := &tenant{
		name:   name,
		dir:    dir,
		cfg:    cfg,
		seed:   seed,
		sink:   telemetry.NewSink(),
		tracer: tracer,
		logger: logger.With("tenant", name),
		queue:  make(chan *ingestReq, cfg.QueueDepth),
		gate:   cfg.testGate,
	}
	t.metrics = newTenantMetrics(t.sink)
	coreOpts := core.Options{
		NumBubbles:            cfg.Bubbles,
		UseTriangleInequality: true,
		Seed:                  seed,
		Telemetry:             t.sink,
		Tracer:                t.tracer,
		Failpoints:            fp,
	}
	if cfg.PipelineDepth >= 1 {
		coreOpts.Pipeline = &core.PipelineOptions{Depth: cfg.PipelineDepth}
	}
	walOpts := wal.Options{
		Dir:             filepath.Join(dir, walSubdir),
		CheckpointEvery: cfg.CheckpointEvery,
		KeepCheckpoints: cfg.KeepCheckpoints,
		Telemetry:       t.sink,
		Tracer:          t.tracer,
		Failpoints:      fp,
	}
	if cfg.RetryAttempts > 1 {
		walOpts.CheckpointRetry = cfg.retryPolicy(seed)
	}
	if cfg.PipelineDepth >= 1 {
		walOpts.GroupCommit = cfg.GroupCommit
		if walOpts.GroupCommit <= 0 {
			walOpts.GroupCommit = 4
		}
	}

	if wal.HasState(walOpts.Dir) {
		st, err := wal.Resume(coreOpts, walOpts)
		if err != nil {
			return nil, err
		}
		t.db, t.sum, t.log, t.resumed = st.DB, st.Summarizer, st.Log, true
	} else {
		if len(cfg.Bootstrap) < cfg.Bubbles {
			return nil, fmt.Errorf("%w: %d points for %d bubbles", ErrBadBootstrap, len(cfg.Bootstrap), cfg.Bubbles)
		}
		t.db = dataset.MustNew(cfg.Dim)
		for i, p := range cfg.Bootstrap {
			if _, err := t.db.Insert(p, 0); err != nil {
				return nil, fmt.Errorf("%w: point %d: %v", ErrBadBootstrap, i, err)
			}
		}
		s, l, err := wal.New(t.db, coreOpts, walOpts)
		if err != nil {
			return nil, err
		}
		t.sum, t.log = s, l
	}
	t.nextID = t.db.NextID()
	t.live = make(map[dataset.PointID]struct{}, t.db.Len())
	for _, rec := range t.db.Snapshot() {
		t.live[rec.ID] = struct{}{}
	}
	t.publish(context.Background())
	if cfg.PipelineDepth >= 1 {
		sched, err := pipeline.New(t.sum, t.log, pipeline.Config{Replay: true})
		if err != nil {
			_ = t.log.Close()
			return nil, err
		}
		t.sched = sched
	}
	return t, nil
}

func loadTenantConfig(dir string) (TenantConfig, error) {
	var cfg TenantConfig
	b, err := os.ReadFile(filepath.Join(dir, configFile))
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		return cfg, fmt.Errorf("server: %s: %w", configFile, err)
	}
	return cfg, nil
}

func saveTenantConfig(dir string, cfg TenantConfig) error {
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, configFile), append(b, '\n'), 0o644)
}

// start launches the worker.
func (t *tenant) start() {
	t.workerWG.Add(1)
	go t.run()
}

// abandon releases a tenant that lost the registration race: its
// worker never started, so only the durable handles need closing.
func (t *tenant) abandon() {
	if t.sched != nil {
		_ = t.sched.Close()
	}
	_ = t.log.Close()
}

// Admit enqueues one batch for ingestion without ever blocking: a full
// queue is ErrQueueFull (the admission-control 429), a degraded tenant
// is ErrReadOnly. On success the caller waits on req.done.
func (t *tenant) Admit(ctx context.Context, batch dataset.Batch) (*ingestReq, error) {
	if d := t.degrade.Load(); d != nil {
		return nil, fmt.Errorf("%w: %s", ErrReadOnly, d.Reason)
	}
	req := &ingestReq{ctx: ctx, batch: batch, done: make(chan ingestResult, 1), admitted: time.Now()}
	t.admitMu.RLock()
	defer t.admitMu.RUnlock()
	if t.queueClosed {
		return nil, ErrDraining
	}
	select {
	case t.queue <- req:
		return req, nil
	default:
		t.sink.Counter(telemetry.MetricServerQueueRejected).Inc()
		return nil, ErrQueueFull
	}
}

// closeQueue stops admissions for this tenant (Drain).
func (t *tenant) closeQueue() {
	t.admitMu.Lock()
	defer t.admitMu.Unlock()
	if !t.queueClosed {
		t.queueClosed = true
		close(t.queue)
	}
}

// awaitDrained blocks until the worker has drained and finalized.
func (t *tenant) awaitDrained(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		//lint:allow ctxflow the join runs in a helper goroutine; the select below races it against ctx.Done
		t.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return t.finalErr
	case <-ctx.Done():
		return fmt.Errorf("server: tenant %s drain: %w", t.name, ctx.Err())
	}
}

func (t *tenant) status() TenantStatus {
	rs := t.read.Load()
	st := TenantStatus{
		Name:                     t.name,
		Seed:                     t.seed,
		Resumed:                  t.resumed,
		QueueLen:                 len(t.queue),
		QueueCap:                 cap(t.queue),
		Pipeline:                 t.cfg.PipelineDepth,
		LastCheckpointAgeSeconds: t.checkpointAge(),
	}
	if rs != nil {
		st.Applied = rs.Applied
		st.Points = rs.Points
		st.Dim = rs.Dim
		st.Bubbles = rs.Set.Len()
	}
	if d := t.degrade.Load(); d != nil {
		st.ReadOnly = true
		st.Reason = d.Reason
		st.Cause = d.Cause
	}
	return st
}

// checkpointAge reports seconds since the tenant's last durable
// checkpoint, -1 before the first one completes in this process.
func (t *tenant) checkpointAge() float64 {
	n := t.log.LastCheckpointNanos()
	if n == 0 {
		return -1
	}
	return time.Since(time.Unix(0, n)).Seconds()
}

// snapshot returns the current read view (never nil once the tenant
// is open — newTenant publishes the initial one).
func (t *tenant) snapshot() *core.ReadView { return t.read.Load() }

// publish captures the live summary's read view and makes it the
// snapshot, under a core.read_view span when ctx carries the request's
// trace. Only a goroutine that owns the summarizer at a batch boundary
// may call it: newTenant before the worker starts, and the serial
// worker. Pipelined tenants publish the view their tickets carry.
func (t *tenant) publish(ctx context.Context) {
	sp := trace.FromContext(ctx).Start("core.read_view")
	t.read.Store(t.sum.ReadView())
	sp.End()
}

// run is the worker: the single goroutine that owns the tenant's
// database, summarizer, scheduler and log. It drains the queue,
// degrades the tenant on a poisoned WAL, and finalizes (flush, final
// checkpoint, close) when the queue closes.
func (t *tenant) run() {
	defer t.workerWG.Done()
	if t.sched != nil {
		t.runPipelined()
	} else {
		t.runSerial()
	}
	t.finalErr = t.finalize()
}

// rejectRemaining consumes the queue until it closes, failing every
// request with the degradation reason — admitted-but-unserved requests
// must not hang after the tenant flips read-only.
func (t *tenant) rejectRemaining() {
	for req := range t.queue {
		d := t.degrade.Load()
		req.reply(ingestResult{err: fmt.Errorf("%w: %s", ErrReadOnly, d.Reason)})
	}
}

// setDegraded flips the tenant read-only. Reads keep serving from the
// last published snapshot; Admit and the worker refuse ingestion with
// the machine-readable reason.
func (t *tenant) setDegraded(reason string, cause error) {
	if t.degrade.CompareAndSwap(nil, &degraded{Reason: reason, Cause: cause.Error()}) {
		t.sink.Counter(telemetry.MetricServerDegraded).Inc()
		t.logger.Warn("tenant degraded", "reason", reason, "cause", cause.Error())
	}
}

// prepare stamps server-assigned IDs onto the batch's inserts and
// validates its deletes against the worker's shadow live set, committing
// the shadow state only when the whole batch is valid. Submission order
// is apply order, so the shadow set is exactly the database state the
// batch will see at replay time even while earlier batches are still in
// flight through the pipeline.
func (t *tenant) prepare(batch dataset.Batch) error {
	next := t.nextID
	ins := make(map[dataset.PointID]struct{})
	del := make(map[dataset.PointID]struct{})
	for i := range batch {
		u := &batch[i]
		switch u.Op {
		case dataset.OpInsert:
			u.ID = next
			next++
			ins[u.ID] = struct{}{}
		case dataset.OpDelete:
			if _, dup := del[u.ID]; dup {
				return fmt.Errorf("%w: update %d deletes id %d twice", ErrBadBatch, i, u.ID)
			}
			_, inLive := t.live[u.ID]
			if _, inBatch := ins[u.ID]; inBatch {
				delete(ins, u.ID)
			} else if inLive {
				del[u.ID] = struct{}{}
			} else {
				return fmt.Errorf("%w: update %d deletes unknown id %d", ErrBadBatch, i, u.ID)
			}
		}
	}
	t.nextID = next
	for id := range del {
		delete(t.live, id)
	}
	for id := range ins {
		t.live[id] = struct{}{}
	}
	return nil
}

// unprepare reverts prepare after a batch provably applied nothing. Only
// valid while no later batch has been prepared on top of it — the serial
// undo path and a pipelined submit that was refused outright.
func (t *tenant) unprepare(batch dataset.Batch, prevNext dataset.PointID) {
	for i := len(batch) - 1; i >= 0; i-- {
		switch u := batch[i]; u.Op {
		case dataset.OpInsert:
			delete(t.live, u.ID)
		case dataset.OpDelete:
			t.live[u.ID] = struct{}{}
		}
	}
	t.nextID = prevNext
}

// firstInsertID reports the first stamped insert ID of a prepared batch;
// the rest follow consecutively over the batch's inserts.
func firstInsertID(batch dataset.Batch) *uint64 {
	for _, u := range batch {
		if u.Op == dataset.OpInsert {
			id := uint64(u.ID)
			return &id
		}
	}
	return nil
}

// --- serial ingestion -------------------------------------------------

// runSerial applies each admitted batch on the spot, propagating the
// request's deadline through ApplyBatchContext. The core guarantees
// all-or-nothing under cancellation (mutation only starts after the
// last ctx check), and the worker mirrors that at the service level:
// the template batch is replayed into the database first and undone
// again if the summarizer provably consumed nothing.
func (t *tenant) runSerial() {
	for req := range t.queue {
		t.dequeued(req)
		t.await()
		if err := req.ctx.Err(); err != nil {
			t.sink.Counter(telemetry.MetricServerCancelledBefore).Inc()
			req.reply(ingestResult{err: err})
			continue
		}
		ordinal := t.sum.Batches()
		prevNext := t.nextID
		if err := t.prepare(req.batch); err != nil {
			req.reply(ingestResult{err: err})
			continue
		}
		applyStart := time.Now()
		applied, err := req.batch.Replay(t.db)
		if err != nil {
			// Unreachable after prepare validated the batch; a failure here
			// means the database and shadow state disagree, so fail stop.
			t.setDegraded("replay_failed", err)
			req.reply(ingestResult{err: fmt.Errorf("%w: replay_failed", ErrReadOnly)})
			t.rejectRemaining()
			return
		}
		stats, err := t.sum.ApplyBatchContext(req.ctx, applied)
		if t.sum.Batches() == ordinal+1 {
			// Committed. A surviving non-fatal error can only be the
			// trailing retryable checkpoint, already re-attempted in place
			// by the WAL's own policy; surface it as a warning. A poisoned
			// log or a simulated crash in the trailing checkpoint still
			// acks the batch (it is durable) but then degrades the tenant:
			// a real crash would have died right here, post-commit.
			res := ingestResult{ordinal: ordinal, stats: stats, firstID: firstInsertID(applied)}
			if err != nil {
				res.warning = err.Error()
			}
			t.metrics.applySeconds.Observe(time.Since(applyStart).Seconds())
			t.sink.Counter(telemetry.MetricServerIngested).Inc()
			t.publish(req.ctx)
			req.reply(res)
			if perr := t.log.Poisoned(); perr != nil {
				t.setDegraded("wal_poisoned", perr)
				t.rejectRemaining()
				return
			}
			if errors.Is(err, failpoint.ErrCrash) {
				t.setDegraded("simulated_crash", err)
				t.rejectRemaining()
				return
			}
			continue
		}
		// Nothing consumed by the summarizer: undo the database replay so
		// the batch is all-or-nothing end to end.
		undoBatch(t.db, applied)
		t.unprepare(applied, prevNext)
		if perr := t.log.Poisoned(); perr != nil {
			t.setDegraded("wal_poisoned", perr)
			req.reply(ingestResult{err: fmt.Errorf("%w: wal_poisoned", ErrReadOnly)})
			t.rejectRemaining()
			return
		}
		if errors.Is(err, failpoint.ErrCrash) {
			// The failpoint convention is fail-stop: a simulated crash
			// means this tenant's process is dead. Degrade instead of
			// continuing against durable state of unknown tail.
			t.setDegraded("simulated_crash", err)
			req.reply(ingestResult{err: fmt.Errorf("%w: simulated_crash", ErrReadOnly)})
			t.rejectRemaining()
			return
		}
		req.reply(ingestResult{err: err})
	}
}

// undoBatch reverses an applied template batch on the database:
// inserts are deleted, deletes are re-inserted with their recorded
// coordinates. Walked in reverse so interleaved updates unwind in
// order.
func undoBatch(db *dataset.DB, applied dataset.Batch) {
	for i := len(applied) - 1; i >= 0; i-- {
		u := applied[i]
		switch u.Op {
		case dataset.OpInsert:
			_, _ = db.Delete(u.ID)
		case dataset.OpDelete:
			_ = db.InsertWithID(dataset.Record{ID: u.ID, P: u.P, Label: u.Label})
		}
	}
}

// --- pipelined ingestion ----------------------------------------------

type inflightTicket struct {
	req     *ingestReq
	tk      *pipeline.Ticket
	started time.Time // submit time; apply latency is observed at head ack
}

// runPipelined keeps a window of up to PipelineDepth batches in flight
// through the scheduler, overlapping batch N+1's speculation and group
// append with batch N's apply. A group-commit clean failure (the batch
// provably consumed nothing) is re-driven through the seeded backoff
// policy; a fatal or poisoning failure degrades the tenant.
func (t *tenant) runPipelined() {
	depth := t.cfg.PipelineDepth
	var inflight []inflightTicket
	open := true
	for open || len(inflight) > 0 {
		// Fill the window: block for work only when idle.
		for open && len(inflight) < depth {
			var req *ingestReq
			var ok bool
			if len(inflight) == 0 {
				req, ok = <-t.queue
			} else {
				select {
				case req, ok = <-t.queue:
				default:
					ok = true // nothing pending right now; go wait the head
				}
			}
			if !ok {
				open = false
				break
			}
			if req == nil {
				break
			}
			t.dequeued(req)
			t.await()
			if err := req.ctx.Err(); err != nil {
				t.sink.Counter(telemetry.MetricServerCancelledBefore).Inc()
				req.reply(ingestResult{err: err})
				continue
			}
			prevNext := t.nextID
			if err := t.prepare(req.batch); err != nil {
				req.reply(ingestResult{err: err})
				continue
			}
			submitted := time.Now()
			tk, err := t.sched.Submit(req.ctx, req.batch)
			if err != nil {
				if t.checkFatal(err) {
					req.reply(ingestResult{err: fmt.Errorf("%w: %s", ErrReadOnly, t.degrade.Load().Reason)})
					t.failInflight(inflight)
					t.rejectRemaining()
					return
				}
				// Admission-time cancellation: the batch never entered the
				// pipeline, and nothing was prepared on top of it yet.
				t.unprepare(req.batch, prevNext)
				req.reply(ingestResult{err: err})
				continue
			}
			inflight = append(inflight, inflightTicket{req: req, tk: tk, started: submitted})
		}
		if len(inflight) == 0 {
			continue
		}
		head := inflight[0]
		// The durability ack must be observed even if the client went
		// away: a submitted batch always runs to completion.
		//lint:allow ctxflow the wait is deliberately not cancellable — the ticket's outcome must be observed exactly once
		stats, err := head.tk.Wait(context.Background())
		if head.tk.Applied() {
			view := head.tk.View()
			res := ingestResult{ordinal: view.Applied - 1, stats: stats, firstID: firstInsertID(head.req.batch)}
			if err != nil {
				res.warning = err.Error()
			}
			t.metrics.applySeconds.Observe(time.Since(head.started).Seconds())
			t.sink.Counter(telemetry.MetricServerIngested).Inc()
			t.read.Store(view)
			head.req.reply(res)
			inflight = inflight[1:]
			// Applied-with-error can hide a fatal trailing fault (poisoned
			// log, crashed async checkpoint): the batch is durable and
			// acked, but the tenant must stop here like a real post-commit
			// crash would.
			if err != nil && t.checkFatal(err) {
				t.failInflight(inflight)
				t.rejectRemaining()
				return
			}
			continue
		}
		if t.checkFatal(err) {
			head.req.reply(ingestResult{err: fmt.Errorf("%w: %s", ErrReadOnly, t.degrade.Load().Reason)})
			t.failInflight(inflight[1:])
			t.rejectRemaining()
			return
		}
		// Clean failure: every ticket behind the head is stale (ErrStale)
		// and consumed nothing. Wait them out — the scheduler's stall
		// clears only once each outcome is observed — then re-drive the
		// head and the stale batches, in order, under the backoff policy.
		stale := inflight[1:]
		for i := range stale {
			//lint:allow ctxflow stale tickets must be observed to clear the scheduler stall
			_, _ = stale[i].tk.Wait(context.Background())
		}
		inflight = nil
		redo := append([]inflightTicket{head}, stale...)
		for _, p := range redo {
			if !t.redrive(p.req) {
				t.failInflight(nil)
				t.rejectRemaining()
				return
			}
		}
	}
}

// checkFatal inspects a failed submit/wait: a poisoned WAL or a sticky
// scheduler failure degrades the tenant and returns true.
func (t *tenant) checkFatal(err error) bool {
	if perr := t.log.Poisoned(); perr != nil {
		t.setDegraded("wal_poisoned", perr)
		return true
	}
	if serr := t.sched.Err(); serr != nil {
		t.setDegraded("pipeline_failed", serr)
		return true
	}
	if errors.Is(err, failpoint.ErrCrash) {
		t.setDegraded("pipeline_failed", err)
		return true
	}
	return false
}

// failInflight replies the degradation error to every ticket still in
// flight (their batches abort behind the fatal failure).
func (t *tenant) failInflight(inflight []inflightTicket) {
	for _, p := range inflight {
		//lint:allow ctxflow aborted tickets still need their outcome observed
		_, _ = p.tk.Wait(context.Background())
		d := t.degrade.Load()
		p.req.reply(ingestResult{err: fmt.Errorf("%w: %s", ErrReadOnly, d.Reason)})
	}
}

// redrive resubmits one cleanly-failed batch under the tenant's backoff
// policy. Only group-commit clean failures retry — a poisoned log, a
// sticky scheduler failure, or a simulated crash stop immediately. A
// batch being re-driven was already prepared (its IDs are committed in
// the shadow state and later batches may reference them), so the retry
// loop ignores the client's context and runs to commit or degradation —
// retries exhausting degrades the tenant rather than leaving its shadow
// state diverged from the summary. Returns false when the tenant
// degraded.
func (t *tenant) redrive(req *ingestReq) bool {
	p := t.cfg.retryPolicy(t.seed)
	p.Retryable = func(err error) bool {
		if errors.Is(err, failpoint.ErrCrash) || errors.Is(err, pipeline.ErrClosed) {
			return false
		}
		return t.log.Poisoned() == nil && t.sched.Err() == nil
	}
	p.OnAttempt = func(a retry.Attempt) {
		if !a.Last {
			t.sink.Counter(telemetry.MetricServerIngestRetries).Inc()
			t.sink.Emit(telemetry.Event{Kind: telemetry.KindRetry, Batch: -1, A: a.N, N: int(a.Delay)})
		}
	}
	//lint:allow ctxflow an admitted batch is re-driven to completion even if its client went away
	err := retry.Do(context.Background(), p, func(ctx context.Context) error {
		tk, serr := t.sched.Submit(ctx, req.batch)
		if serr != nil {
			return serr
		}
		//lint:allow ctxflow the durability ack must be observed even for an abandoned request
		stats, werr := tk.Wait(context.Background())
		if tk.Applied() {
			view := tk.View()
			res := ingestResult{ordinal: view.Applied - 1, stats: stats, firstID: firstInsertID(req.batch)}
			if werr != nil {
				res.warning = werr.Error()
			}
			t.sink.Counter(telemetry.MetricServerIngested).Inc()
			t.read.Store(view)
			req.reply(res)
			return nil
		}
		return werr
	})
	if err == nil {
		return true
	}
	if !t.checkFatal(err) {
		t.setDegraded("retries_exhausted", err)
	}
	req.reply(ingestResult{err: fmt.Errorf("%w: %s", ErrReadOnly, t.degrade.Load().Reason)})
	return false
}

// finalize flushes and closes the tenant's durable state at drain: the
// pipeline drains, a healthy tenant writes a final checkpoint (so a
// restart resumes without replaying any WAL suffix), and the log
// closes. A degraded tenant is abandoned exactly as a crash would leave
// it — no close, no final sync: its on-disk tail is whatever the fault
// left, and recovery owns it from here.
func (t *tenant) finalize() error {
	if t.degrade.Load() != nil {
		if t.sched != nil {
			_ = t.sched.Close()
		}
		return nil
	}
	if t.sched != nil {
		if err := t.sched.Close(); err != nil && !errors.Is(err, wal.ErrCheckpointRetryable) {
			if t.log.Poisoned() == nil {
				_ = t.log.Close()
				return fmt.Errorf("server: pipeline close: %w", err)
			}
			return nil
		}
	}
	if t.log.Poisoned() != nil {
		return nil
	}
	if err := t.log.Checkpoint(t.sum); err != nil {
		_ = t.log.Close()
		return fmt.Errorf("server: final checkpoint: %w", err)
	}
	t.logger.Info("final checkpoint", "applied", t.sum.Batches())
	return t.log.Close()
}
