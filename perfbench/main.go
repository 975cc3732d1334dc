// Command perfbench is the end-to-end benchmark of bubbled. It starts
// bubbled as a child process on loopback, drives one workload over HTTP,
// checks every reply and the drained tenant against a library oracle,
// and prints the end-to-end metrics; with -trace 1 it also replays the
// same inputs in-process through each layer's public functions and
// prints per-layer metrics instead. See README.md.
//
// Usage (from the repository root, after perfbench/run.sh has built it):
//
//	perfbench -workload ingest_search -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"incbubbles/internal/telemetry"
	"incbubbles/internal/vecmath"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bubbled  string
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: ingest_search, ingest_publish or read_mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input derives from it")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured ingest window")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced in-process replay instead of end-to-end metrics")
	flag.StringVar(&o.bubbled, "bubbled", ".bench_build/bubbled", "bubbled binary built from the commit under test")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for server roots, spans and the full report")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	start := time.Now()
	res, err := run(o)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d took %.1fs\n", o.workload, o.seed, time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// value is one reported metric with the sample count behind it (0 for a
// metric that is not a percentile or mean of samples).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Errors    []string         `json:"errors,omitempty"`
	// Diagnostics go to the report file only.
	Diagnostics map[string]any `json:"diagnostics,omitempty"`
}

// resultLine is the last line of standard output: exactly the keys the
// result format names.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	setupRepeats  = 3
	warmupBatch   = 3 // per stream, before the window
	probePlotsPer = 2
	checkBoxes    = 8 // range counts compared with the oracle after the drain
	renderAheadN  = 16
)

// httpRun is everything the HTTP phase measured and recorded.
type httpRun struct {
	w          Workload
	boot       []vecmath.Point
	setups     []float64
	tallies    []*tally
	probe      *tally
	window     time.Duration
	probeWall  time.Duration
	cpu        float64
	rssMB      float64
	tenantSeed int64
	queueWait  telemetry.HistogramSnapshot
	checks     tally // quiescent and oracle checks
	warm       *tally
	// Diagnostics for the report: the machine's steal share over the
	// window, and updates acknowledged in each second of it.
	stealFrac float64
	perSecond []int
}

func run(o options) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(o.bubbled); err != nil {
		return nil, fmt.Errorf("bubbled binary: %w", err)
	}
	hr, err := runHTTP(o, w)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]value{}, Diagnostics: map[string]any{
		"steal_frac":             hr.stealFrac,
		"updates_per_window_sec": hr.perSecond,
	}}
	for _, t := range append(hr.tallies, hr.warm, hr.probe, &hr.checks) {
		if t == nil {
			continue
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Errors = append(res.Errors, t.errs...)
	}
	defs := endToEndDefs
	if o.trace {
		defs = perLayerDefs
		if err := traced(o, w, hr, res); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(hr, res)
	}
	if err := checkDeclared(res.Metrics, defs); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runHTTP performs the set-ups, the measured window, the quiescent
// checks, the drain and the oracle comparison.
func runHTTP(o options, w Workload) (*httpRun, error) {
	dir := filepath.Join(o.out, fmt.Sprintf("%s-%d", w.Name, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	boot := bootstrap(o.seed, w)
	body := bootstrapBody(w, boot)
	hr := &httpRun{w: w, boot: boot}

	// Set-up, timed from exec to the 201 of the bootstrap PUT, repeated on
	// fresh roots; the last server carries the measured run.
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		s, dur, err := setupOnce(o.bubbled, filepath.Join(dir, "root-"+strconv.Itoa(i)), w, body)
		if err != nil {
			return nil, err
		}
		hr.setups = append(hr.setups, dur.Seconds())
		if i < setupRepeats-1 {
			s.kill()
		} else {
			srv = s
		}
	}
	body = nil
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	conns := w.streams()
	if w.Reader {
		conns++
	}
	if n := runtime.NumCPU(); conns > n {
		conns = n
	}
	c := newClient("http://"+srv.addr, conns)
	defer c.close()

	streams := w.streams()
	queues := make([]*liveQueue, streams)
	for i := range queues {
		queues[i] = &liveQueue{}
	}
	for id := 0; id < w.N; id++ {
		queues[id%streams].push(uint64(id), 1)
	}
	stop := make(chan struct{})
	var renderers sync.WaitGroup
	ins := make([]chan rendered, streams)
	for i := range ins {
		ins[i] = make(chan rendered, renderAheadN)
		renderers.Add(1)
		go func() {
			defer renderers.Done()
			renderAhead(newInsertStream(o.seed, w, i), ins[i], stop)
		}()
	}
	defer renderers.Wait()
	defer close(stop)

	// Warm-up: a few acknowledged batches per stream (part of the oracle's
	// replay, not of any metric).
	warm := &tally{}
	hr.warm = warm
	for i := 0; i < streams; i++ {
		for j := 0; j < warmupBatch; j++ {
			if _, ok := c.sendBatch(warm, queues[i], i, <-ins[i]); !ok {
				return nil, fmt.Errorf("warm-up batch failed: %v", warm.errs)
			}
		}
	}
	for _, ch := range ins {
		for len(ch) < cap(ch) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	boxes := rangeBoxes(o.seed, w)
	// An ingest workload probes reads on the quiet tenant, half before the
	// window and half after it, so a passing slowdown of the machine does
	// not fall on the whole probe.
	probe := func() {
		if w.Reader {
			return
		}
		if hr.probe == nil {
			hr.probe = &tally{}
		}
		p0 := time.Now()
		n := (w.ProbePlots + w.ProbePlots/probePlotsPer) / 2
		c.reads(hr.probe, boxes, w.N, probePlotsPer, n, p0.Add(time.Minute))
		hr.probeWall += hr.probe.lastDone.Sub(p0)
	}
	probe()
	if err := resetPeakRSS(srv.pid()); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	runtime.GC()
	cpu0, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	host0, steal0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	hr.tallies = ingestPhase(c, w, queues, ins, boxes, t0, t0.Add(time.Duration(o.seconds)*time.Second))
	end := t0
	for _, t := range hr.tallies {
		if t.lastDone.After(end) {
			end = t.lastDone
		}
	}
	hr.window = end.Sub(t0)
	cpu1, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	hr.cpu = cpu1 - cpu0
	host1, steal1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	hr.stealFrac = (steal1 - steal0) / (host1 - host0)
	hr.perSecond = make([]int, int(hr.window/time.Second)+1)
	for _, t := range hr.tallies {
		for i, at := range t.doneAt {
			hr.perSecond[int(at.Sub(t0)/time.Second)] += t.sent[i].updates()
		}
	}
	if hr.rssMB, err = peakRSSMB(srv.pid()); err != nil {
		return nil, err
	}
	probe()

	sent := append([]sentBatch(nil), warm.sent...)
	for _, t := range hr.tallies {
		sent = append(sent, t.sent...)
	}
	fin, err := quiescentChecks(c, hr, sent, boxes)
	if err != nil {
		return nil, err
	}
	if err := srv.drain(60 * time.Second); err != nil {
		hr.checks.attempted++
		hr.checks.fail(err)
		srv = nil
		return hr, nil
	}
	root := srv.root
	srv = nil
	hr.checks.attempted++
	ordered, err := checkOrdinals(sent)
	if err == nil {
		err = oracleCheck(o.seed, w, hr.tenantSeed, boot, ordered, tenantWALDir(root), boxes, fin)
	}
	if err != nil {
		hr.checks.fail(fmt.Errorf("oracle: %w", err))
	}
	return hr, nil
}

func setupOnce(bin, root string, w Workload, body []byte) (*server, time.Duration, error) {
	start := time.Now()
	s, err := startServer(bin, root, w.PipelineDepth)
	if err != nil {
		return nil, 0, err
	}
	c := newClient("http://"+s.addr, 1)
	defer c.close()
	if err := c.do(http.MethodPut, "/tenants/"+tenantName, body, http.StatusCreated, nil); err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("create tenant: %w", err)
	}
	return s, time.Since(start), nil
}

// quiescentChecks reads the idle tenant: status, exact count and plot
// weight against the client-tracked live count, the final plot and range
// counts for the oracle, and the metrics scrape.
func quiescentChecks(c *client, hr *httpRun, sent []sentBatch, boxes [][2]vecmath.Point) (finalReads, error) {
	var fin finalReads
	ck := &hr.checks
	check := func(err error) {
		ck.attempted++
		if err != nil {
			ck.fail(err)
		}
	}
	var st struct {
		Seed    int64 `json:"seed"`
		Applied int   `json:"applied"`
		Points  int   `json:"points"`
	}
	if err := c.do(http.MethodGet, "/tenants/"+tenantName+"/status", nil, http.StatusOK, &st); err != nil {
		return fin, err
	}
	hr.tenantSeed = st.Seed
	check(checkWeight("status applied", st.Applied, len(sent)))
	check(checkWeight("status points", st.Points, hr.w.N))
	var cnt struct {
		Count int `json:"count"`
	}
	err := c.do(http.MethodGet, "/tenants/"+tenantName+"/approx/count", nil, http.StatusOK, &cnt)
	if err == nil {
		err = checkWeight("approx count", cnt.Count, hr.w.N)
	}
	check(err)
	err = c.do(http.MethodGet, "/tenants/"+tenantName+"/plot?minpts="+strconv.Itoa(plotMinPts), nil, http.StatusOK, &fin.plot)
	if err == nil {
		err = checkWeight("plot total_weight", fin.plot.TotalWeight, hr.w.N)
	}
	check(err)
	for _, b := range boxes[:checkBoxes] {
		var rep rangeReply
		err := c.do(http.MethodPost, "/tenants/"+tenantName+"/approx/rangecount", rangeBody(b), http.StatusOK, &rep)
		check(err)
		fin.ranges = append(fin.ranges, rep.Estimate)
	}
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return fin, err
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseProm(resp.Body)
	if err != nil {
		return fin, fmt.Errorf("parse /metrics: %w", err)
	}
	hr.queueWait, err = promHistogram(fams, telemetry.MetricServerQueueWaitSeconds)
	return fin, err
}

func endToEndMetrics(hr *httpRun, res *result) {
	var ingest, plot, rng []float64
	updates := 0
	for _, t := range hr.tallies {
		ingest = append(ingest, t.ingestMS...)
		plot = append(plot, t.plotMS...)
		rng = append(rng, t.rangeMS...)
		updates += t.updates
	}
	readWall := hr.window
	if hr.probe != nil {
		plot, rng, readWall = hr.probe.plotMS, hr.probe.rangeMS, hr.probeWall
	}
	m := res.Metrics
	m["setup_s"] = value{Value: median(hr.setups), Unit: "s", Samples: len(hr.setups)}
	m["ingest_updates_per_s"] = value{Value: float64(updates) / hr.window.Seconds(), Unit: "updates/s"}
	m["ingest_p50_ms"] = value{Value: quantile(ingest, 0.5), Unit: "ms", Samples: len(ingest)}
	m["ingest_p95_ms"] = value{Value: quantile(ingest, 0.95), Unit: "ms", Samples: len(ingest)}
	m["cpu_us_per_update"] = value{Value: hr.cpu / float64(updates) * 1e6, Unit: "us"}
	m["plot_p50_ms"] = value{Value: quantile(plot, 0.5), Unit: "ms", Samples: len(plot)}
	m["plot_p95_ms"] = value{Value: quantile(plot, 0.95), Unit: "ms", Samples: len(plot)}
	m["rangecount_p50_ms"] = value{Value: quantile(rng, 0.5), Unit: "ms", Samples: len(rng)}
	m["reads_per_s"] = value{Value: float64(len(plot)+len(rng)) / readWall.Seconds(), Unit: "reads/s"}
	m["peak_rss_mb"] = value{Value: hr.rssMB, Unit: "MB"}
	ok := 0.0
	if res.Attempted > 0 {
		ok = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	}
	m["ok_frac"] = value{Value: ok, Unit: "ratio", Samples: res.Attempted}
}

// emit prints the human-readable lines, the provenance, and as the last
// line the result object; the full report goes to the output directory.
func emit(o options, res *result) error {
	prov := provenance(o)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("%-34s %14.4f %-10s n=%d\n", n, v.Value, v.Unit, v.Samples)
	}
	for _, e := range res.Errors {
		fmt.Printf("failure: %s\n", e)
	}
	fmt.Printf("host steal during the window: %.4f\n", res.Diagnostics["steal_frac"])
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance: %s\n", pj)
	report := map[string]any{"provenance": prov, "result": res}
	rj, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-%d-trace%d.json", o.workload, o.seed, btoi(o.trace))
	if err := os.WriteFile(filepath.Join(o.out, name), append(rj, '\n'), 0o644); err != nil {
		return err
	}
	out := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineValue{}}
	for n, v := range res.Metrics {
		out.Metrics[n] = lineValue{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
