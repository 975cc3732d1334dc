package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"incbubbles/internal/approx"
	"incbubbles/internal/optics"
	"incbubbles/internal/vecmath"
)

// tiny is a workload small enough for the self-test to replay in well
// under a second, with two streams and a pipelined WAL like
// ingest_search.
var tiny = Workload{Name: "tiny", Dim: 2, Bubbles: 4, N: 200, Batch: 10, Clients: 2, PipelineDepth: 2, ReplayBatches: 6}

const tinySeed, tinyTenantSeed = 3, 99

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEndDefs:\n%+v\n%+v", bj.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerDefs:\n%+v\n%+v", bj.PerLayer, perLayerDefs)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].Name)
		}
	}
}

func TestEndToEndMetricsAreDeclared(t *testing.T) {
	hr := &httpRun{
		w:       tiny,
		setups:  []float64{1, 1.1, 1.2},
		tallies: []*tally{{ingestMS: []float64{5, 6, 7}, updates: 30}},
		probe:   &tally{plotMS: []float64{1, 2}, rangeMS: []float64{3}, lastDone: time.Now()},
		window:  time.Second, probeWall: time.Second, cpu: 0.5, rssMB: 10,
	}
	res := &result{Metrics: map[string]value{}, Attempted: 10}
	endToEndMetrics(hr, res)
	if err := checkDeclared(res.Metrics, endToEndDefs); err != nil {
		t.Fatal(err)
	}
}

// tinyServed replays the tiny workload through the serving path's layers
// into a WAL directory, standing in for a drained bubbled tenant, and
// returns what the oracle needs to check it.
func tinyServed(t *testing.T) (boot []vecmath.Point, sent []sentBatch, walDir string, boxes [][2]vecmath.Point, fin finalReads) {
	t.Helper()
	boot = bootstrap(tinySeed, tiny)
	batches, sent := canonicalBatches(tinySeed, tiny, tiny.ReplayBatches)
	walDir = filepath.Join(t.TempDir(), "wal")
	st, err := openSerial(tiny, tinyTenantSeed, boot, walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := st.step(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	r := st.run
	space, err := optics.NewBubbleSpace(r.lastSet)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optics.Run(space, optics.Params{Eps: math.Inf(1), MinPts: plotMinPts})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Order {
		fin.plot.Order = append(fin.plot.Order, plotEntry{Obj: e.Obj, ID: e.ID, Reach: finiteOrNeg1(e.Reach), Core: finiteOrNeg1(e.Core), Weight: e.Weight})
	}
	boxes = rangeBoxes(tinySeed, tiny)
	for _, b := range boxes {
		est, err := approx.RangeCount(r.lastSet, approx.Box{Lo: b[0], Hi: b[1]}, rangeSamples, tinyTenantSeed)
		if err != nil {
			t.Fatal(err)
		}
		fin.ranges = append(fin.ranges, est)
	}
	return boot, sent, walDir, boxes, fin
}

func TestOracleAcceptsFaithfulAndRejectsCorrupted(t *testing.T) {
	boot, sent, walDir, boxes, fin := tinyServed(t)
	check := func(seed int64, sent []sentBatch, fin finalReads) error {
		ordered, err := checkOrdinals(sent)
		if err != nil {
			return err
		}
		return oracleCheck(tinySeed, tiny, seed, boot, ordered, walDir, boxes, fin)
	}
	if err := check(tinyTenantSeed, sent, fin); err != nil {
		t.Fatalf("faithful run rejected: %v", err)
	}

	if err := check(tinyTenantSeed+1, sent, fin); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("oracle under another tenant seed: got %v, want a fingerprint mismatch", err)
	}
	dropped := append(append([]sentBatch(nil), sent[:2]...), sent[3:]...)
	if err := check(tinyTenantSeed, dropped, fin); err == nil {
		t.Error("a dropped reply passed the ordinal check")
	}
	badFirst := append([]sentBatch(nil), sent...)
	badFirst[1].firstID++
	if err := check(tinyTenantSeed, badFirst, fin); err == nil {
		t.Error("a wrong first_id passed the oracle")
	}
	badRange := fin
	badRange.ranges = append([]float64(nil), fin.ranges...)
	badRange.ranges[0] += 1e-9
	if err := check(tinyTenantSeed, sent, badRange); err == nil {
		t.Error("a perturbed range count passed the oracle")
	}
	badPlot := fin
	badPlot.plot.Order = append([]plotEntry(nil), fin.plot.Order...)
	badPlot.plot.Order[0].Weight++
	if err := check(tinyTenantSeed, sent, badPlot); err == nil {
		t.Error("a perturbed plot passed the oracle")
	}
}

func TestReplyCheckersRejectOffByOne(t *testing.T) {
	id := uint64(7)
	good := ingestReply{Ordinal: 4, Applied: 5, Inserted: 25, Deleted: 25, FirstID: &id}
	if err := checkIngestReply(good, 25, 25); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	for name, r := range map[string]ingestReply{
		"inserted": {Ordinal: 4, Applied: 5, Inserted: 24, Deleted: 25, FirstID: &id},
		"deleted":  {Ordinal: 4, Applied: 5, Inserted: 25, Deleted: 26, FirstID: &id},
		"applied":  {Ordinal: 4, Applied: 4, Inserted: 25, Deleted: 25, FirstID: &id},
		"first_id": {Ordinal: 4, Applied: 5, Inserted: 25, Deleted: 25},
	} {
		if checkIngestReply(r, 25, 25) == nil {
			t.Errorf("reply with a wrong %s passed", name)
		}
	}
	if checkWeight("count", 1001, 1000) == nil || checkWeight("count", 999, 1000) == nil {
		t.Error("a count off by one passed")
	}
	if checkEstimate(1000.5, 1000) == nil || checkEstimate(math.NaN(), 1000) == nil || checkEstimate(-1, 1000) == nil {
		t.Error("an impossible range estimate passed")
	}
}

// TestOpenLoopChargesStallsToLaterRequests drives the paced sender on a
// fake clock: requests are due every 100ms and take 10ms, except the
// second, which stalls for 350ms. The requests queued behind the stall go
// out late, and their latency counts from their due time.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	t0 := time.Unix(0, 0)
	now := t0
	i := 0
	send := func() bool {
		d := 10 * time.Millisecond
		if i == 1 {
			d = 350 * time.Millisecond
		}
		i++
		now = now.Add(d)
		return true
	}
	lat, late := openLoop(t0, 100*time.Millisecond, t0.Add(600*time.Millisecond),
		func() time.Time { return now }, func(at time.Time) { now = at }, send)
	// Due:   0   100  200  300  400  500
	// Sent:  0   100  450  460  470  500
	// Done: 10   450  460  470  480  510
	wantLat := []float64{10, 350, 260, 170, 80, 10}
	wantLate := []float64{0, 0, 250, 160, 70, 0}
	if !reflect.DeepEqual(lat, wantLat) || !reflect.DeepEqual(late, wantLate) {
		t.Fatalf("latency %v late %v, want %v and %v", lat, late, wantLat, wantLate)
	}
}

func TestTracedReplayEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the tiny workload")
	}
	o := options{workload: tiny.Name, seed: tinySeed, out: t.TempDir()}
	hr := &httpRun{w: tiny, boot: bootstrap(tinySeed, tiny), tenantSeed: tinyTenantSeed}
	hr.queueWait.Bounds = []float64{1}
	hr.queueWait.Counts = []uint64{0, 0}
	res := &result{Metrics: map[string]value{}}
	if err := traced(o, tiny, hr, res); err != nil {
		t.Fatal(err)
	}
	if err := checkDeclared(res.Metrics, perLayerDefs); err != nil {
		t.Fatal(err)
	}
	// Serial replay counts are a pure function of the inputs.
	again := &result{Metrics: map[string]value{}}
	if err := traced(o, tiny, hr, again); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.distance_computed_per_update", "core.pruned_frac", "server.publish_bytes", "core.rounds_per_batch"} {
		if res.Metrics[name] != again.Metrics[name] {
			t.Errorf("%s differs between identical replays: %v, %v", name, res.Metrics[name], again.Metrics[name])
		}
	}
}
