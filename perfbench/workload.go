package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/synth"
	"incbubbles/internal/vecmath"
)

// Workload is one traffic mix against one bubbled tenant. The shapes and
// the reasons behind them are documented in README.md.
type Workload struct {
	Name    string
	Dim     int
	Bubbles int
	N       int // bootstrap points; churn batches keep the live count here
	Batch   int // updates per ingest batch, half inserts and half deletes

	// Clients closed-loop ingest clients. Zero selects the open-loop
	// writer of read_mix instead, sending WriteRate batches per second.
	Clients   int
	WriteRate float64
	// Reader runs one closed-loop reader next to the writer for the whole
	// window (read_mix); without it, reads are probed on the quiet tenant
	// after the ingest window.
	Reader        bool
	PipelineDepth int

	// ProbePlots is the size of an ingest workload's quiet-tenant read
	// probe: enough plots for a steady p95, and a range count after
	// every probePlotsPer of them.
	ProbePlots int
	// ReplayBatches bounds the traced in-process replay.
	ReplayBatches int
}

var workloads = []Workload{
	{Name: "ingest_search", Dim: 64, Bubbles: 256, N: 20000, Batch: 1000, Clients: 2, PipelineDepth: 2, ProbePlots: 300, ReplayBatches: 40},
	{Name: "ingest_publish", Dim: 5, Bubbles: 300, N: 100000, Batch: 50, Clients: 1, ProbePlots: 400, ReplayBatches: 60},
	{Name: "read_mix", Dim: 8, Bubbles: 500, N: 50000, Batch: 100, WriteRate: 10, Reader: true, ReplayBatches: 60},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// streams is the number of independent insert streams: one per ingest
// client, or the single open-loop writer.
func (w Workload) streams() int {
	if w.Clients > 0 {
		return w.Clients
	}
	return 1
}

const (
	mixClusters = 32
	mixStd      = 4.0
	boxLo       = 0.0
	boxHi       = 100.0 // centers lie in [boxLo+10, boxHi-10]
	driftStep   = 0.004 // per batch, along each cluster's fixed direction
	plotMinPts  = 10
	numBoxes    = 40
)

// quantize rounds a coordinate to three decimals. Churn inserts and query
// boxes are quantized so their JSON text stays short; shortest
// round-trip formatting parses back to exactly the float64 the library
// oracle uses.
func quantize(x float64) float64 { return math.Round(x*1000) / 1000 }

// mixture is the drifting Gaussian mixture every input is drawn from.
type mixture struct {
	mix   *synth.Mixture
	start []vecmath.Point
	vel   []vecmath.Point
}

func newMixture(seed int64, dim int) *mixture {
	rng := stats.NewRNG(stats.SubSeed(seed, 1))
	centers := synth.SpreadCenters(rng, dim, mixClusters, boxLo+10, boxHi-10, 3*mixStd)
	m := &mixture{mix: &synth.Mixture{Dim: dim}}
	for i, c := range centers {
		v := rng.GaussianPoint(make(vecmath.Point, dim), 1)
		norm := math.Sqrt(v.Dot(v))
		for j := range v {
			v[j] /= norm
		}
		m.start = append(m.start, c)
		m.vel = append(m.vel, v)
		m.mix.Clusters = append(m.mix.Clusters, &synth.Cluster{Label: i, Center: c.Clone(), Std: mixStd, Weight: 1 + float64(i%3)})
	}
	return m
}

// at moves every cluster to its position after t batches of drift.
func (m *mixture) at(t int) {
	for i, c := range m.mix.Clusters {
		for j := range c.Center {
			c.Center[j] = m.start[i][j] + driftStep*float64(t)*m.vel[i][j]
		}
	}
}

func (m *mixture) sample(rng *stats.RNG) vecmath.Point {
	p, _ := m.mix.Sample(rng)
	for j := range p {
		p[j] = quantize(p[j])
	}
	return p
}

// bootstrap draws the tenant's initial points. They keep full float64
// precision, like a bulk load of existing data; shortest round-trip
// formatting still gives the server exactly these values.
func bootstrap(seed int64, w Workload) []vecmath.Point {
	m := newMixture(seed, w.Dim)
	rng := stats.NewRNG(stats.SubSeed(seed, 2))
	pts := make([]vecmath.Point, w.N)
	for i := range pts {
		pts[i], _ = m.mix.Sample(rng)
	}
	return pts
}

// insertStream yields the insert points of one client's batches in order.
// Batch t of a stream is drawn from the mixture after t batches of drift,
// so a stream can be regenerated from the seed alone for the oracle.
type insertStream struct {
	m     *mixture
	rng   *stats.RNG
	per   int
	batch int
}

func newInsertStream(seed int64, w Workload, stream int) *insertStream {
	return &insertStream{
		m:   newMixture(seed, w.Dim),
		rng: stats.NewRNG(stats.SubSeed(seed, 100+stream)),
		per: w.Batch / 2,
	}
}

func (s *insertStream) next() []vecmath.Point {
	s.m.at(s.batch)
	s.batch++
	pts := make([]vecmath.Point, s.per)
	for i := range pts {
		pts[i] = s.m.sample(s.rng)
	}
	return pts
}

// rangeBoxes are the fixed seeded query boxes of the read path: each
// spans two standard deviations around a cluster's starting center.
func rangeBoxes(seed int64, w Workload) [][2]vecmath.Point {
	m := newMixture(seed, w.Dim)
	out := make([][2]vecmath.Point, numBoxes)
	for i := range out {
		c := m.start[i%len(m.start)]
		lo, hi := make(vecmath.Point, w.Dim), make(vecmath.Point, w.Dim)
		for j := range c {
			lo[j] = quantize(c[j] - 2*mixStd)
			hi[j] = quantize(c[j] + 2*mixStd)
		}
		out[i] = [2]vecmath.Point{lo, hi}
	}
	return out
}

func appendPoint(b []byte, p vecmath.Point) []byte {
	b = append(b, '[')
	for j, v := range p {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	return append(b, ']')
}

// bootstrapBody renders the tenant-creation body.
func bootstrapBody(w Workload, pts []vecmath.Point) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"dim":%d,"bubbles":%d`, w.Dim, w.Bubbles)
	if w.PipelineDepth > 0 {
		fmt.Fprintf(&b, `,"pipeline_depth":%d`, w.PipelineDepth)
	}
	b.WriteString(`,"bootstrap":[`)
	buf := make([]byte, 0, 32*w.Dim)
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(appendPoint(buf[:0], p))
	}
	b.WriteString("]}")
	return b.Bytes()
}

// insertFragment renders the insert updates of one batch, ready to be
// joined with the batch's deletes into an ingest body.
func insertFragment(pts []vecmath.Point) []byte {
	var b []byte
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"insert","p":`...)
		b = appendPoint(b, p)
		b = append(b, '}')
	}
	return b
}

// ingestBody joins deletes and the pre-rendered inserts of one batch.
// Deletes come first, so server-assigned insert IDs follow the inserts'
// order in the body.
func ingestBody(dels []dataset.PointID, inserts []byte) []byte {
	b := make([]byte, 0, len(inserts)+len(dels)*28+16)
	b = append(b, `{"updates":[`...)
	for _, id := range dels {
		b = append(b, `{"op":"delete","id":`...)
		b = strconv.AppendUint(b, uint64(id), 10)
		b = append(b, `},`...)
	}
	b = append(b, inserts...)
	return append(b, "]}"...)
}

// sentBatch is what the oracle needs to replay one acknowledged batch.
type sentBatch struct {
	stream  int
	index   int // position within its stream
	ordinal int
	firstID uint64
	dels    []dataset.PointID
	inserts int
}

func (b sentBatch) updates() int { return len(b.dels) + b.inserts }

// batchOf rebuilds the template batch the server applied: deletes first,
// then the inserts in order.
func batchOf(dels []dataset.PointID, ins []vecmath.Point) dataset.Batch {
	b := make(dataset.Batch, 0, len(dels)+len(ins))
	for _, id := range dels {
		b = append(b, dataset.Update{Op: dataset.OpDelete, ID: id})
	}
	for _, p := range ins {
		b = append(b, dataset.Update{Op: dataset.OpInsert, P: p})
	}
	return b
}
