package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"incbubbles/internal/approx"
	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/optics"
	"incbubbles/internal/pipeline"
	"incbubbles/internal/stats"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

// spans is the benchmark's own span recorder: spans are kept in memory
// and written out once, after the replay. A nil recorder records nothing.
type spans struct {
	t0  time.Time
	out []spanRec
}

type spanRec struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the span list, -1 for roots
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s *spans) start(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.out = append(s.out, spanRec{Name: name, Parent: parent, StartNS: int64(time.Since(s.t0))})
	return len(s.out) - 1
}

func (s *spans) end(i int) {
	if s == nil {
		return
	}
	s.out[i].EndNS = int64(time.Since(s.t0))
}

// selfMS sums the self time (duration minus the children's) of every span
// with the given name, in milliseconds, and counts them.
func (s *spans) selfMS(name string) (float64, int) {
	child := make([]int64, len(s.out))
	for _, r := range s.out {
		if r.Parent >= 0 {
			child[r.Parent] += r.EndNS - r.StartNS
		}
	}
	var total int64
	n := 0
	for i, r := range s.out {
		if r.Name == name {
			total += r.EndNS - r.StartNS - child[i]
			n++
		}
	}
	return float64(total) / 1e6, n
}

// replayBatch is one churn batch as bubbled received it.
type replayBatch struct {
	body    []byte
	updates int
}

// canonicalBatches regenerates the first n churn batches with the
// clients' delete policy, interleaving the streams round-robin, and the
// record of each as bubbled would acknowledge it. With one stream that is
// exactly the served order; with several it fixes the interleaving the
// served run left to timing, so replay counts repeat.
func canonicalBatches(seed int64, w Workload, n int) ([]replayBatch, []sentBatch) {
	streams := make([]*insertStream, w.streams())
	queues := make([]*liveQueue, len(streams))
	for i := range streams {
		streams[i] = newInsertStream(seed, w, i)
		queues[i] = &liveQueue{}
	}
	for id := 0; id < w.N; id++ {
		queues[id%len(queues)].push(uint64(id), 1)
	}
	next := uint64(w.N)
	out := make([]replayBatch, n)
	sent := make([]sentBatch, n)
	for i := range out {
		s := i % len(streams)
		idx := streams[s].batch
		ins := streams[s].next()
		dels := queues[s].pop(len(ins))
		queues[s].push(next, len(ins))
		out[i] = replayBatch{body: ingestBody(dels, insertFragment(ins)), updates: len(ins) + len(dels)}
		sent[i] = sentBatch{stream: s, index: idx, ordinal: i, firstID: next, dels: dels, inserts: len(ins)}
		next += uint64(len(ins))
	}
	return out, sent
}

// wireUpdate and wireBody mirror bubbled's ingest wire shape.
type wireUpdate struct {
	Op    string    `json:"op"`
	ID    *uint64   `json:"id,omitempty"`
	P     []float64 `json:"p,omitempty"`
	Label int       `json:"label,omitempty"`
}

type wireBody struct {
	Updates []wireUpdate `json:"updates"`
}

// decodeIngest decodes one ingest body and stamps insert IDs from next,
// as the serving layer does before a batch reaches the database.
func decodeIngest(body []byte, next *dataset.PointID) (dataset.Batch, error) {
	var wb wireBody
	if err := json.Unmarshal(body, &wb); err != nil {
		return nil, err
	}
	batch := make(dataset.Batch, 0, len(wb.Updates))
	for _, u := range wb.Updates {
		switch {
		case u.Op == "insert":
			batch = append(batch, dataset.Update{Op: dataset.OpInsert, ID: *next, P: vecmath.Point(u.P), Label: u.Label})
			*next++
		case u.Op == "delete" && u.ID != nil:
			batch = append(batch, dataset.Update{Op: dataset.OpDelete, ID: dataset.PointID(*u.ID)})
		default:
			return nil, fmt.Errorf("bad update %+v", u)
		}
	}
	return batch, nil
}

// bootstrapWire mirrors the tenant-creation body.
type bootstrapWire struct {
	Dim       int         `json:"dim"`
	Bubbles   int         `json:"bubbles"`
	Pipeline  int         `json:"pipeline_depth"`
	Bootstrap [][]float64 `json:"bootstrap"`
}

// layerRun is what one replay of the batches measured.
type layerRun struct {
	wall      time.Duration // the batch loop
	batches   int
	updates   int
	before    telemetry.Snapshot
	after     telemetry.Snapshot
	rounds    int
	pubBytes  int
	lastSet   *bubble.Set
	gcPauseNS uint64
	numGC     uint32
	allocB    uint64
	batchMS   []float64 // pipelined: Submit to Wait per batch
	tr        *trace.Tracer
	trStart   int64 // the batch loop on the tracer's clock
	trEnd     int64
	dir       string
}

func (r *layerRun) counter(name string) float64 {
	return float64(r.after.Counters[name] - r.before.Counters[name])
}

// histMeanMS is the mean observation of a histogram over the run, in ms.
func (r *layerRun) histMeanMS(name string) float64 {
	a, b := r.after.Histograms[name], r.before.Histograms[name]
	if a.Count == b.Count {
		return 0
	}
	return (a.Sum - b.Sum) / float64(a.Count-b.Count) * 1e3
}

func (r *layerRun) histPerBatchMS(name string) float64 {
	a, b := r.after.Histograms[name], r.before.Histograms[name]
	return (a.Sum - b.Sum) / float64(r.batches) * 1e3
}

// newDurable builds a WAL-backed summarizer over the bootstrap, the way
// bubbled opens a fresh tenant. sink and tr may be nil (untraced).
func newDurable(w Workload, tenantSeed int64, boot []vecmath.Point, dir string, pipelined bool,
	sink *telemetry.Sink, tr *trace.Tracer,
) (*core.Summarizer, *wal.Log, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	db, err := bootstrapDB(w.Dim, boot)
	if err != nil {
		return nil, nil, err
	}
	copts := coreOptions(w, tenantSeed)
	copts.Telemetry, copts.Tracer = sink, tr
	wopts := wal.Options{Dir: dir, Telemetry: sink, Tracer: tr}
	if pipelined {
		copts.Pipeline = &core.PipelineOptions{Depth: w.PipelineDepth}
		wopts.GroupCommit = 4 // bubbled's default
	}
	return wal.New(db, copts, wopts)
}

// serialTenant is a WAL-backed summarizer fed the way a serial bubbled
// tenant is: decode, stamp IDs, replay into the database, apply, publish.
// An untraced one has no sink, tracer or spans.
type serialTenant struct {
	sum  *core.Summarizer
	log  *wal.Log
	sink *telemetry.Sink
	sp   *spans
	next dataset.PointID
	run  *layerRun
}

func openSerial(w Workload, tenantSeed int64, boot []vecmath.Point, dir string, sp *spans) (*serialTenant, error) {
	var sink *telemetry.Sink
	var tr *trace.Tracer
	if sp != nil {
		sink, tr = telemetry.NewSink(), trace.New(trace.Options{Capacity: 1 << 16})
	}
	sum, log, err := newDurable(w, tenantSeed, boot, dir, false, sink, tr)
	if err != nil {
		return nil, err
	}
	t := &serialTenant{sum: sum, log: log, sink: sink, sp: sp, next: sum.DB().NextID(), run: &layerRun{dir: dir}}
	if sink != nil {
		t.run.before = sink.Metrics.Snapshot()
	}
	return t, nil
}

// step applies one batch and adds its wall time to the run.
func (t *serialTenant) step(b replayBatch) error {
	sp, r := t.sp, t.run
	start := time.Now()
	root := sp.start("replay.batch", -1)
	s := sp.start("server.decode", root)
	batch, err := decodeIngest(b.body, &t.next)
	sp.end(s)
	if err != nil {
		return err
	}
	s = sp.start("dataset.replay", root)
	applied, err := batch.Replay(t.sum.DB())
	sp.end(s)
	if err != nil {
		return err
	}
	s = sp.start("core.batch", root)
	st, err := t.sum.ApplyBatchContext(context.Background(), applied)
	sp.end(s)
	if err != nil {
		return err
	}
	s = sp.start("server.publish", root)
	set, n, err := publish(t.sum.Set())
	sp.end(s)
	if err != nil {
		return err
	}
	sp.end(root)
	r.wall += time.Since(start)
	r.batches++
	r.rounds += st.Rounds
	r.pubBytes += n
	r.lastSet = set
	r.updates += b.updates
	return nil
}

// close drains like bubbled: a final checkpoint, so a resume replays
// nothing.
func (t *serialTenant) close() error {
	if t.sink != nil {
		t.run.after = t.sink.Metrics.Snapshot()
	}
	if err := t.log.Checkpoint(t.sum); err != nil {
		_ = t.log.Close()
		return err
	}
	return t.log.Close()
}

// pairedReplay feeds the same batches to an untraced and a traced serial
// tenant, alternating which goes first, so drift in the machine's speed
// falls on both sides of the tracing-overhead ratio alike. Go runtime
// allocation and GC figures are taken around the untraced steps.
func pairedReplay(w Workload, tenantSeed int64, boot []vecmath.Point, batches []replayBatch, dir string, sp *spans) (traced, bare *layerRun, err error) {
	b, err := openSerial(w, tenantSeed, boot, filepath.Join(dir, "bare"), nil)
	if err != nil {
		return nil, nil, err
	}
	t, err := openSerial(w, tenantSeed, boot, filepath.Join(dir, "traced"), sp)
	if err != nil {
		return nil, nil, errors.Join(err, b.close())
	}
	// Every step is bracketed by a (stop-the-world) MemStats read, so both
	// sides pay the same for it; the bare side's deltas are kept.
	var ms [3]runtime.MemStats
	for i, rb := range batches {
		first, second := b, t
		if i%2 == 1 {
			first, second = t, b
		}
		runtime.ReadMemStats(&ms[0])
		if err = first.step(rb); err != nil {
			break
		}
		runtime.ReadMemStats(&ms[1])
		if err = second.step(rb); err != nil {
			break
		}
		runtime.ReadMemStats(&ms[2])
		m0, m1 := &ms[0], &ms[1]
		if second == b {
			m0, m1 = &ms[1], &ms[2]
		}
		b.run.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		b.run.numGC += m1.NumGC - m0.NumGC
		b.run.allocB += m1.TotalAlloc - m0.TotalAlloc
	}
	if cerr := errors.Join(b.close(), t.close()); err == nil {
		err = cerr
	}
	return t.run, b.run, err
}

// publish is tenant.publish's snapshot clone: Save the live set, Load it
// back as an independent read snapshot.
func publish(set *bubble.Set) (*bubble.Set, int, error) {
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		return nil, 0, err
	}
	n := buf.Len()
	clone, err := bubble.Load(&buf, bubble.Options{})
	return clone, n, err
}

// pipelinedReplay drives a pipeline.Scheduler with two batches in flight,
// as bubbled's pipelined worker does, timing Submit to Wait per batch.
// The batches are decoded up front: bubbled decodes in its HTTP handlers,
// beside the worker, not in front of it.
func pipelinedReplay(w Workload, tenantSeed int64, boot []vecmath.Point, batches []replayBatch, dir string, sp *spans) (_ *layerRun, err error) {
	sink, tr := telemetry.NewSink(), trace.New(trace.Options{Capacity: 1 << 16})
	sum, log, err := newDurable(w, tenantSeed, boot, dir, true, sink, tr)
	if err != nil {
		return nil, err
	}
	sched, err := pipeline.New(sum, log, pipeline.Config{Replay: true})
	if err != nil {
		_ = log.Close()
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = sched.Close()
			_ = log.Close()
		}
	}()
	decoded := make([]dataset.Batch, len(batches))
	next := sum.DB().NextID()
	for i, b := range batches {
		if decoded[i], err = decodeIngest(b.body, &next); err != nil {
			return nil, err
		}
	}
	r := &layerRun{dir: dir, batches: len(batches), tr: tr}
	r.before = sink.Metrics.Snapshot()
	ctx := context.Background()
	type inflight struct {
		tk    *pipeline.Ticket
		start time.Time
		span  int
	}
	var window []inflight
	wait := func() error {
		h := window[0]
		window = window[1:]
		_, err := h.tk.Wait(ctx)
		r.batchMS = append(r.batchMS, ms(time.Since(h.start)))
		sp.end(h.span)
		return err
	}
	r.trStart = tr.Now()
	for i, batch := range decoded {
		s := sp.start("pipeline.batch", -1)
		t0 := time.Now()
		tk, err := sched.Submit(ctx, batch)
		if err != nil {
			return nil, err
		}
		window = append(window, inflight{tk: tk, start: t0, span: s})
		r.updates += batches[i].updates
		if len(window) == w.PipelineDepth {
			if err := wait(); err != nil {
				return nil, err
			}
		}
	}
	for len(window) > 0 {
		if err := wait(); err != nil {
			return nil, err
		}
	}
	r.trEnd = tr.Now()
	r.after = sink.Metrics.Snapshot()
	if err := sched.Close(); err != nil && !errors.Is(err, wal.ErrCheckpointRetryable) {
		_ = log.Close()
		return nil, err
	}
	if err := log.Checkpoint(sum); err != nil {
		_ = log.Close()
		return nil, err
	}
	return r, log.Close()
}

// stallMSPerBatch is the time the scheduler's applier spent in
// core.pipeline.stall spans (which have no children) within the replay,
// per batch.
func (r *layerRun) stallMSPerBatch() float64 {
	var total int64
	for _, rec := range r.tr.Snapshot() {
		if rec.Name != "core.pipeline.stall" {
			continue
		}
		lo, hi := max(rec.Start, r.trStart), min(rec.Start+rec.Dur, r.trEnd)
		if hi > lo {
			total += hi - lo
		}
	}
	return float64(total) / 1e6 / float64(r.batches)
}

// timeMedianMS runs fn reps times and returns the median wall time in ms.
func timeMedianMS(reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs), nil
}

const (
	layerReps  = 5
	layerBoxes = 16
)

// traced runs the in-process replay and fills res with per-layer metrics.
func traced(o options, w Workload, hr *httpRun, res *result) error {
	dir := filepath.Join(o.out, fmt.Sprintf("%s-%d", w.Name, o.seed), "replay")
	n := w.ReplayBatches
	batches, _ := canonicalBatches(o.seed, w, n)
	seed := hr.tenantSeed
	m := res.Metrics
	put := func(name, unit string, v float64, samples int) {
		m[name] = value{Value: v, Unit: unit, Samples: samples}
	}

	// Set-up layers: the bootstrap decode and the bubble build.
	body := bootstrapBody(w, hr.boot)
	start := time.Now()
	var bw bootstrapWire
	if err := json.Unmarshal(body, &bw); err != nil {
		return err
	}
	put("server.bootstrap_decode_s", "s", time.Since(start).Seconds(), 1)
	body = nil
	db, err := bootstrapDB(w.Dim, hr.boot)
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := bubble.Build(db, w.Bubbles, bubble.Options{UseTriangleInequality: true, TrackMembers: true, RNG: stats.NewRNG(seed)}); err != nil {
		return err
	}
	put("bubble.build_s", "s", time.Since(start).Seconds(), 1)

	// The same batches traced and untraced: the difference is the tracing
	// overhead every per-layer number carries.
	sp := &spans{t0: time.Now()}
	ser, bare, err := pairedReplay(w, seed, hr.boot, batches, dir, sp)
	if err != nil {
		return fmt.Errorf("serial replay: %w", err)
	}
	put("trace.overhead_frac", "ratio", ser.wall.Seconds()/bare.wall.Seconds()-1, n)

	decode, nd := sp.selfMS("server.decode")
	put("server.decode_ms", "ms", decode/float64(nd), nd)
	pub, np := sp.selfMS("server.publish")
	put("server.publish_ms", "ms", pub/float64(np), np)
	put("server.publish_bytes", "count", float64(ser.pubBytes)/float64(np), np)
	put("server.queue_wait_p50_ms", "ms", hr.queueWait.Quantile(0.5)*1e3, int(hr.queueWait.Count))

	cb, nb := sp.selfMS("core.batch")
	put("core.batch_ms", "ms", cb/float64(nb), nb)
	put("core.search_ms", "ms", ser.histPerBatchMS(telemetry.MetricPhaseSearchSeconds), n)
	put("core.apply_ms", "ms", ser.histPerBatchMS(telemetry.MetricPhaseApplySeconds), n)
	put("core.maintain_ms", "ms", ser.histPerBatchMS(telemetry.MetricPhaseMaintainSeconds), n)
	computed := ser.counter(telemetry.MetricDistanceComputed)
	pruned := ser.counter(telemetry.MetricDistancePruned)
	put("core.distance_computed_per_update", "count", computed/float64(ser.updates), ser.updates)
	put("core.pruned_frac", "ratio", pruned/(computed+pruned), ser.updates)
	put("core.rounds_per_batch", "count", float64(ser.rounds)/float64(n), n)

	// The WAL runs as the served tenant's does: group commit behind the
	// pipeline, or one fsync per batch.
	walRun := ser
	put("pipeline.batch_ms", "ms", 0, 0)
	put("pipeline.stall_ms", "ms", 0, 0)
	if w.PipelineDepth > 0 {
		pl, err := pipelinedReplay(w, seed, hr.boot, batches, filepath.Join(dir, "pipelined"), sp)
		if err != nil {
			return fmt.Errorf("pipelined replay: %w", err)
		}
		put("pipeline.batch_ms", "ms", median(pl.batchMS), len(pl.batchMS))
		put("pipeline.stall_ms", "ms", pl.stallMSPerBatch(), n)
		walRun = pl
	}
	put("wal.fsync_ms", "ms", walRun.histMeanMS(telemetry.MetricWALFsyncSeconds), int(walRun.counter(telemetry.MetricWALSyncs)))
	put("wal.syncs_per_batch", "count", walRun.counter(telemetry.MetricWALSyncs)/float64(n), n)
	put("wal.checkpoint_ms", "ms", walRun.histMeanMS(telemetry.MetricWALCheckpointSeconds), int(walRun.counter(telemetry.MetricWALCheckpoints)))
	ckpts := walRun.counter(telemetry.MetricWALCheckpoints)
	ckptBytes := 0.0
	if ckpts > 0 {
		ckptBytes = walRun.counter(telemetry.MetricWALCheckpointBytes) / ckpts
	}
	put("wal.checkpoint_bytes", "count", ckptBytes, int(ckpts))
	put("wal.append_bytes_per_update", "count", walRun.counter(telemetry.MetricWALAppendBytes)/float64(walRun.updates), walRun.updates)
	resume, err := timeMedianMS(3, func() error {
		st, err := wal.Resume(coreOptions(w, seed), wal.Options{Dir: ser.dir})
		if err != nil {
			return err
		}
		return st.Log.Close()
	})
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	put("wal.resume_ms", "ms", resume, 3)

	// Read layers over the last published snapshot.
	var space *optics.BubbleSpace
	spaceMS, err := timeMedianMS(layerReps, func() error {
		var err error
		space, err = optics.NewBubbleSpace(ser.lastSet)
		return err
	})
	if err != nil {
		return err
	}
	put("optics.space_ms", "ms", spaceMS, layerReps)
	runMS, err := timeMedianMS(layerReps, func() error {
		_, err := optics.Run(space, optics.Params{Eps: math.Inf(1), MinPts: plotMinPts})
		return err
	})
	if err != nil {
		return err
	}
	put("optics.run_ms", "ms", runMS, layerReps)
	boxes := rangeBoxes(o.seed, w)[:layerBoxes]
	i := 0
	rcMS, err := timeMedianMS(len(boxes), func() error {
		b := boxes[i]
		i++
		_, err := approx.RangeCount(ser.lastSet, approx.Box{Lo: b[0], Hi: b[1]}, rangeSamples, seed)
		return err
	})
	if err != nil {
		return err
	}
	put("approx.rangecount_ms", "ms", rcMS, len(boxes))

	pause := 0.0
	if bare.numGC > 0 {
		pause = float64(bare.gcPauseNS) / float64(bare.numGC) / 1e6
	}
	put("runtime.gc_pause_ms", "ms", pause, int(bare.numGC))
	put("runtime.alloc_bytes_per_update", "count", float64(bare.allocB)/float64(bare.updates), bare.updates)

	var late []float64
	for _, t := range hr.tallies {
		late = append(late, t.lateMS...)
	}
	put("loadgen.late_p95_ms", "ms", quantile(late, 0.95), len(late))

	sj, err := json.Marshal(sp.out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.json", w.Name, o.seed)), sj, 0o644)
}
