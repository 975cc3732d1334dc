package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"incbubbles/internal/approx"
	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/synth"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
)

// TestPipelinedSnapshotConsistency pins the read snapshot of a
// pipelined tenant under concurrent ingest: every published snapshot is
// one batch boundary (its bubbles compress exactly the points it
// reports), applied counts never go backwards, and the reply ordinals
// name each batch exactly once. A snapshot taken by the producer after
// its ticket's Wait would race the applier already working on the next
// batch — torn snapshots, a later batch's ordinal, and under -race a
// DATA RACE report.
func TestPipelinedSnapshotConsistency(t *testing.T) {
	e := newTestEnv(t, Options{})
	const (
		name      = "snap"
		bootN     = 16
		clients   = 4
		perClient = 12
	)
	e.createTenant(t, name, TenantConfig{
		Dim: 2, Bubbles: 8, Seed: 5, PipelineDepth: 2, QueueDepth: 64,
		CheckpointEvery: 4, Bootstrap: mkBootstrap(2, bootN, 7),
	})
	tn, err := e.srv.Tenant(name)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		last := -1
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			rs := tn.snapshot()
			if got := approx.Count(rs.Set); got != rs.Points {
				readerDone <- fmt.Errorf("torn snapshot at applied %d: bubbles hold %d points, snapshot reports %d", rs.Applied, got, rs.Points)
				return
			}
			if rs.Applied < last {
				readerDone <- fmt.Errorf("applied went backwards: %d after %d", rs.Applied, last)
				return
			}
			last = rs.Applied
		}
	}()

	var (
		mu       sync.Mutex
		ordinals []int
		wg       sync.WaitGroup
		errs     = make(chan error, clients)
	)
	for c := 0; c < clients; c++ {
		var bodies []*bytes.Reader
		for _, b := range mkInsertBatches(2, perClient, 10, int64(100+c)) {
			bodies = append(bodies, wireBody(t, b))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, body := range bodies {
				ord, err := postBatch(e.ts.URL+"/tenants/"+name+"/batches", body)
				if err != nil {
					errs <- fmt.Errorf("batch %d: %w", i, err)
					return
				}
				mu.Lock()
				ordinals = append(ordinals, ord)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-readerDone; err != nil {
		t.Error(err)
	}
	sort.Ints(ordinals)
	if len(ordinals) != clients*perClient {
		t.Fatalf("%d replies, want %d", len(ordinals), clients*perClient)
	}
	for i, o := range ordinals {
		if o != i {
			t.Fatalf("reply ordinals are not 0..%d: sorted position %d holds %d", len(ordinals)-1, i, o)
		}
	}
	if rs := tn.snapshot(); rs.Applied != clients*perClient || approx.Count(rs.Set) != bootN+clients*perClient*10 {
		t.Fatalf("final snapshot: applied %d count %d", rs.Applied, approx.Count(rs.Set))
	}
}

// postBatch ingests one wire body and returns the reply ordinal; it
// reports failures as errors so client goroutines never call t.Fatal.
func postBatch(url string, body *bytes.Reader) (int, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, body)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var reply ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	return reply.Ordinal, nil
}

// TestReadViewRepliesMatchCodecClone is the read path's differential
// contract: across every synth scenario, after every batch, each read
// endpoint served from Summarizer.ReadView answers byte for byte what it
// answers from a Save→Load clone of the live set — the stats-only view
// drops members, ownership and the seed matrix, none of which a read
// consults. JSON carries float64 exactly, so any difference is a bug.
func TestReadViewRepliesMatchCodecClone(t *testing.T) {
	srv := &Server{}
	rc, err := json.Marshal(rangeCountBody{Lo: []float64{20, 20}, Hi: []float64{60, 60}, Samples: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		target string
		body   []byte
		serve  func(http.ResponseWriter, *http.Request, *tenant)
	}{
		{"/approx/count", nil, srv.handleApproxCount},
		{"/approx/mean", nil, srv.handleApproxMean},
		{"/approx/variance", nil, srv.handleApproxVariance},
		{"/approx/rangecount", rc, srv.handleRangeCount},
		{"/approx/histogram?axis=1&bins=8&lo=0&hi=100&samples=256", nil, srv.handleHistogram},
		{"/plot?minpts=5", nil, srv.handlePlot},
		{"/plot?minpts=3&eps=8", nil, srv.handlePlot},
	}
	reply := func(target string, body []byte, serve func(http.ResponseWriter, *http.Request, *tenant), view *core.ReadView) []byte {
		tn := &tenant{seed: 7}
		tn.read.Store(view)
		rec := httptest.NewRecorder()
		serve(rec, httptest.NewRequest(http.MethodGet, target, bytes.NewReader(body)), tn)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	const batches = 6
	for _, kind := range synth.Kinds() {
		sc, err := synth.NewScenario(synth.Config{Kind: kind, InitialPoints: 600, Batches: batches, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := core.New(sc.DB(), core.Options{NumBubbles: 20, UseTriangleInequality: true, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b <= batches; b++ {
			if b > 0 {
				batch, err := sc.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sum.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := sum.Set().Save(&buf); err != nil {
				t.Fatal(err)
			}
			set, err := bubble.Load(&buf, bubble.Options{})
			if err != nil {
				t.Fatal(err)
			}
			clone := &core.ReadView{Set: set, Applied: sum.Batches(), Points: sum.DB().Len(), Dim: sum.DB().Dim()}
			view := sum.ReadView()
			for _, rd := range reads {
				got := reply(rd.target, rd.body, rd.serve, view)
				want := reply(rd.target, rd.body, rd.serve, clone)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s batch %d %s:\nread view  %s\ncodec clone %s", kind, b, rd.target, got, want)
				}
			}
		}
	}
}

// TestReadViewAllocationIndependentOfN pins the publish cost as
// O(k·d), not O(N), without a timer: at fixed k and d, the bytes one
// Summarizer.ReadView — and one serial-tenant publish, which wraps it —
// allocates at N=10⁵ stay within 1.1× of those at N=10³. The codec
// round trip it replaced carried every member ID and grew with N.
func TestReadViewAllocationIndependentOfN(t *testing.T) {
	const k, d = 64, 8
	measure := func(n int) (view, publish uint64) {
		rng := stats.NewRNG(int64(n))
		db := dataset.MustNew(d)
		for i := 0; i < n; i++ {
			p := make(vecmath.Point, d)
			for j := range p {
				p[j] = float64(i%16)*10 + rng.Float64()
			}
			if _, err := db.Insert(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		sum, err := core.New(db, core.Options{NumBubbles: k, UseTriangleInequality: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tn := &tenant{sum: sum}
		root := trace.New(trace.Options{}).Start("server.ingest")
		ctx := trace.ContextWith(context.Background(), root)
		return allocBytes(func() { _ = sum.ReadView() }), allocBytes(func() { tn.publish(ctx) })
	}
	smallView, smallPub := measure(1_000)
	bigView, bigPub := measure(100_000)
	t.Logf("ReadView: %d B at N=1e3, %d B at N=1e5; publish: %d B, %d B", smallView, bigView, smallPub, bigPub)
	if float64(bigView) > 1.1*float64(smallView) {
		t.Errorf("Summarizer.ReadView allocates %d B at N=1e5 vs %d B at N=1e3: grows with N", bigView, smallView)
	}
	if float64(bigPub) > 1.1*float64(smallPub) {
		t.Errorf("tenant publish allocates %d B at N=1e5 vs %d B at N=1e3: grows with N", bigPub, smallPub)
	}
}

// allocBytes reports the heap bytes one call of f allocates: the mean
// over a run of calls, taking the least of three runs so a stray
// allocation elsewhere in the test binary cannot inflate it.
func allocBytes(f func()) uint64 {
	const runs = 20
	f()
	best := uint64(math.MaxUint64)
	for r := 0; r < 3; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return best
}

// TestReadViewSpanUnderIngest pins where the snapshot capture shows in
// a request's trace: on the serial worker and in the pipeline applier
// alike, every server.ingest root has exactly one core.read_view child.
func TestReadViewSpanUnderIngest(t *testing.T) {
	e := newTestEnv(t, Options{})
	for _, depth := range []int{0, 2} {
		name := fmt.Sprintf("span%d", depth)
		e.createTenant(t, name, TenantConfig{Dim: 2, Bubbles: 8, PipelineDepth: depth, Bootstrap: mkBootstrap(2, 12, 31)})
		const batches = 3
		for i, b := range mkInsertBatches(2, batches, 16, 27) {
			if resp, body := e.ingest(t, name, b); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s ingest %d: %d %v", name, i, resp.StatusCode, body)
			}
		}
		tn, err := e.srv.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		// The handler ends server.ingest after writing its reply, so the
		// last root may land in the ring just after the client returns.
		var recs []trace.Record
		ingests := map[uint64]int{}
		for deadline := time.Now().Add(5 * time.Second); len(ingests) < batches; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d server.ingest spans recorded, want %d", name, len(ingests), batches)
			}
			time.Sleep(time.Millisecond)
			recs = tn.tracer.Snapshot()
			ingests = map[uint64]int{}
			for _, r := range recs {
				if r.Name == "server.ingest" {
					ingests[r.ID] = 0
				}
			}
		}
		for _, r := range recs {
			if _, ok := ingests[r.Parent]; ok && r.Name == "core.read_view" {
				ingests[r.Parent]++
			}
		}
		for id, n := range ingests {
			if n != 1 {
				t.Errorf("%s: server.ingest span %d has %d core.read_view children, want 1", name, id, n)
			}
		}
	}
}
