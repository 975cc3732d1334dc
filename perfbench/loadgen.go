package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"incbubbles/internal/dataset"
	"incbubbles/internal/vecmath"
)

const tenantName = "bench"

// client is the load generator's HTTP side: one transport whose
// connection count never exceeds the workload's concurrency.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON reply into out. Any other
// status is an error carrying the reply body.
func (c *client) do(method, path string, body []byte, wantStatus int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// ingestReply mirrors bubbled's POST /batches reply.
type ingestReply struct {
	Ordinal  int     `json:"ordinal"`
	Applied  int     `json:"applied"`
	Inserted int     `json:"inserted"`
	Deleted  int     `json:"deleted"`
	FirstID  *uint64 `json:"first_id"`
}

type plotEntry struct {
	Obj    int     `json:"obj"`
	ID     uint64  `json:"id"`
	Reach  float64 `json:"reach"`
	Core   float64 `json:"core"`
	Weight int     `json:"weight"`
}

type plotReply struct {
	Applied     int         `json:"applied"`
	TotalWeight int         `json:"total_weight"`
	Order       []plotEntry `json:"order"`
}

type rangeReply struct {
	Applied  int     `json:"applied"`
	Estimate float64 `json:"estimate"`
}

// checkIngestReply verifies a batch reply against what was sent.
func checkIngestReply(r ingestReply, inserts, deletes int) error {
	switch {
	case r.Inserted != inserts:
		return fmt.Errorf("reply inserted %d, sent %d", r.Inserted, inserts)
	case r.Deleted != deletes:
		return fmt.Errorf("reply deleted %d, sent %d", r.Deleted, deletes)
	case r.Applied != r.Ordinal+1:
		return fmt.Errorf("reply applied %d at ordinal %d", r.Applied, r.Ordinal)
	case inserts > 0 && r.FirstID == nil:
		return fmt.Errorf("reply carries no first_id for %d inserts", inserts)
	}
	return nil
}

// checkWeight verifies a count-like read against the live count the
// clients track. Churn batches delete as many points as they insert, so
// every snapshot summarizes exactly the bootstrap count.
func checkWeight(what string, got, live int) error {
	if got != live {
		return fmt.Errorf("%s %d, client-tracked live count %d", what, got, live)
	}
	return nil
}

// checkEstimate bounds a range-count estimate by the live count.
func checkEstimate(est float64, live int) error {
	if math.IsNaN(est) || est < 0 || est > float64(live)*(1+1e-9) {
		return fmt.Errorf("range-count estimate %v outside [0, %d]", est, live)
	}
	return nil
}

// liveQueue is one stream's FIFO of point IDs it knows are live.
type liveQueue struct {
	ids  []dataset.PointID
	head int
}

func (q *liveQueue) push(first uint64, n int) {
	for i := 0; i < n; i++ {
		q.ids = append(q.ids, dataset.PointID(first+uint64(i)))
	}
}

func (q *liveQueue) pop(n int) []dataset.PointID {
	out := append([]dataset.PointID(nil), q.ids[q.head:q.head+n]...)
	q.head += n
	if q.head > 1<<16 && q.head*2 > len(q.ids) {
		q.ids = append(q.ids[:0], q.ids[q.head:]...)
		q.head = 0
	}
	return out
}

// rendered is one batch's inserts, rendered ahead of need.
type rendered struct {
	index int
	frag  []byte
	n     int
}

// renderAhead renders a stream's insert fragments into a bounded buffer
// until stop closes. The buffer is full before the timed window opens, so
// no request waits on generation.
func renderAhead(s *insertStream, out chan<- rendered, stop <-chan struct{}) {
	for {
		idx := s.batch
		pts := s.next()
		r := rendered{index: idx, frag: insertFragment(pts), n: len(pts)}
		select {
		case out <- r:
		case <-stop:
			return
		}
	}
}

// tally is one goroutine's record of the measured phase.
type tally struct {
	attempted, failed int
	errs              []string
	ingestMS          []float64
	lateMS            []float64
	plotMS            []float64
	rangeMS           []float64
	sent              []sentBatch
	updates           int
	doneAt            []time.Time // completion of each acknowledged batch
	lastDone          time.Time
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sendBatch posts one churn batch and, on a verified reply, records it
// for the oracle and moves the stream's live IDs.
func (c *client) sendBatch(t *tally, q *liveQueue, stream int, r rendered) (time.Duration, bool) {
	dels := q.pop(r.n)
	body := ingestBody(dels, r.frag)
	t.attempted++
	start := time.Now()
	var rep ingestReply
	err := c.do(http.MethodPost, "/tenants/"+tenantName+"/batches", body, http.StatusOK, &rep)
	lat := time.Since(start)
	t.lastDone = time.Now()
	if err == nil {
		err = checkIngestReply(rep, r.n, len(dels))
	}
	if err != nil {
		t.fail(err)
		return lat, false
	}
	q.push(*rep.FirstID, r.n)
	t.sent = append(t.sent, sentBatch{stream: stream, index: r.index, ordinal: rep.Ordinal, firstID: *rep.FirstID, dels: dels, inserts: r.n})
	t.updates += r.n + len(dels)
	t.doneAt = append(t.doneAt, t.lastDone)
	return lat, true
}

// closedLoopIngest sends batches back to back until the deadline. A
// failed batch stops the client: its live set is no longer known.
func (c *client) closedLoopIngest(t *tally, q *liveQueue, stream int, in <-chan rendered, deadline time.Time) {
	for time.Now().Before(deadline) {
		lat, ok := c.sendBatch(t, q, stream, <-in)
		if !ok {
			return
		}
		t.ingestMS = append(t.ingestMS, ms(lat))
	}
}

// openLoop runs a paced sender: request i is due at t0 + i·interval and
// is sent at its due time or, when the previous reply is late, as soon as
// that reply arrives. Latency counts from the due time, so a stalled
// reply is charged to every request queued behind it; late records how
// far behind schedule each send went out.
func openLoop(t0 time.Time, interval time.Duration, deadline time.Time,
	now func() time.Time, sleepUntil func(time.Time), send func() bool,
) (latMS, lateMS []float64) {
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return
		}
		if now().Before(due) {
			sleepUntil(due)
		}
		sent := now()
		if !send() {
			return
		}
		latMS = append(latMS, ms(now().Sub(due)))
		lateMS = append(lateMS, ms(sent.Sub(due)))
	}
}

// reads sends /plot and /approx/rangecount requests, checking each reply
// against the live count. One in every plotsPer+1 requests is a range
// count. It stops at the deadline, or after limit requests when limit > 0.
func (c *client) reads(t *tally, boxes [][2]vecmath.Point, live, plotsPer, limit int, deadline time.Time) {
	bodies := make([][]byte, len(boxes))
	for i, b := range boxes {
		bodies[i] = rangeBody(b)
	}
	for i := 0; (limit <= 0 || i < limit) && time.Now().Before(deadline); i++ {
		t.attempted++
		start := time.Now()
		var err error
		if i%(plotsPer+1) != plotsPer {
			var rep plotReply
			err = c.do(http.MethodGet, "/tenants/"+tenantName+"/plot?minpts="+strconv.Itoa(plotMinPts), nil, http.StatusOK, &rep)
			if err == nil {
				t.plotMS = append(t.plotMS, ms(time.Since(start)))
				err = checkWeight("plot total_weight", rep.TotalWeight, live)
			}
		} else {
			var rep rangeReply
			err = c.do(http.MethodPost, "/tenants/"+tenantName+"/approx/rangecount", bodies[(i/(plotsPer+1))%len(bodies)], http.StatusOK, &rep)
			if err == nil {
				t.rangeMS = append(t.rangeMS, ms(time.Since(start)))
				err = checkEstimate(rep.Estimate, live)
			}
		}
		t.lastDone = time.Now()
		if err != nil {
			t.fail(err)
		}
	}
}

func rangeBody(b [2]vecmath.Point) []byte {
	out := append([]byte(`{"lo":`), appendPoint(nil, b[0])...)
	out = append(out, `,"hi":`...)
	out = appendPoint(out, b[1])
	return append(out, '}')
}

// ingestPhase drives the workload's writers (and read_mix's reader) for
// the window and returns one tally per goroutine.
func ingestPhase(c *client, w Workload, queues []*liveQueue, ins []chan rendered,
	boxes [][2]vecmath.Point, t0, deadline time.Time,
) []*tally {
	var wg sync.WaitGroup
	var tallies []*tally
	spawn := func(fn func(t *tally)) {
		t := &tally{}
		tallies = append(tallies, t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(t)
		}()
	}
	if w.Clients > 0 {
		for i := 0; i < w.Clients; i++ {
			spawn(func(t *tally) { c.closedLoopIngest(t, queues[i], i, ins[i], deadline) })
		}
	} else {
		interval := time.Duration(float64(time.Second) / w.WriteRate)
		spawn(func(t *tally) {
			lat, late := openLoop(t0, interval, deadline, time.Now,
				func(at time.Time) { time.Sleep(time.Until(at)) },
				func() bool { _, ok := c.sendBatch(t, queues[0], 0, <-ins[0]); return ok })
			t.ingestMS, t.lateMS = lat, late
		})
	}
	if w.Reader {
		spawn(func(t *tally) { c.reads(t, boxes, w.N, 1, 0, deadline) })
	}
	wg.Wait()
	return tallies
}
