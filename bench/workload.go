package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/stream"
	"repro/internal/wire"
)

// A workload fixes everything about the traffic except the seed: work per
// epoch, batch size, codec and resident queries are constants here, never
// derived at run time, so two runs of one commit do the same work per epoch
// and differ only in how many epochs fit the measured window.
type workload struct {
	name string
	// frames per epoch × tuples per frame is the epoch's fixed work.
	framesPerEpoch int
	tuplesPerFrame int
	json           bool // JSON bodies (DecodeJSON) instead of binary frames
	durable        bool // craqrd -data-dir, fsyncPolicy batch, SIGKILL + recover
	retention      int
	// probeRate is λ of the full-region probe query every freshness and
	// rate-conformance sample is read from; it is always Q1.
	probeRate float64
	// queries are the resident CrAQL statements after the probe.
	queries []string
	// attrs cycles over the pushed tuples (tuple k of an epoch carries
	// attrs[k % len]).
	attrs []string
	// warmupEpochs is setup's fixed work, sized to ≈1.3 s at the commit that
	// defined the benchmark.
	warmupEpochs int
	// traceEpochs is the corpus prefix the in-process traced pass replays.
	traceEpochs int
	// refEpochs is the prefix check (b) replays in the other codec; never
	// longer than the warm-up.
	refEpochs int
	// genRefUs is the generator's own CPU time per pushed tuple, in µs, on
	// the machine that defined the benchmark at its quiet speed: the unit
	// the host's speed is measured in (roundResult.host). Part of the
	// benchmark's definition; do not retune it.
	genRefUs float64
}

func (w workload) tuplesPerEpoch() int { return w.framesPerEpoch * w.tuplesPerFrame }

// The deployment craqrd serves (internal/world): an 8×8 region, unit epochs.
const (
	regionSide   = 8.0
	regionArea   = regionSide * regionSide
	epochLength  = 1.0
	tailLines    = 512
	sessionName  = "s"
	refSession   = "ref"
	probeQueryID = "Q1"
)

// statements lists the session's CrAQL in submission order: the full-region
// probe (which therefore becomes Q1), then the residents.
func (w workload) statements() []string {
	probe := fmt.Sprintf("ACQUIRE %s FROM RECT(0, 0, 8, 8) RATE %g", w.attrs[0], w.probeRate)
	return append([]string{probe}, w.queries...)
}

// fanoutQueries builds epoch_fanout's residents: 511 statements cycling over
// 64 distinct (region, rate) forms on rain/temp. The forms tile the region
// at three scales with four rates, so cells carry several rates (T-chains),
// regions span cells (P/U merges) and every form recurs eight times
// (sharing). With the probe that is 512 resident queries.
func fanoutQueries() []string {
	var forms []string
	rates := []float64{1, 2, 4, 8}
	add := func(attr string, x0, y0, x1, y1 float64, rate float64) {
		forms = append(forms, fmt.Sprintf("ACQUIRE %s FROM RECT(%g, %g, %g, %g) RATE %g", attr, x0, y0, x1, y1, rate))
	}
	i := 0
	// 16 quadrant-scale forms (4×4 blocks), 32 cell-pair forms, 16 offset
	// forms that straddle cell borders.
	for _, attr := range []string{"rain", "temp"} {
		for qy := 0.0; qy < 8; qy += 4 {
			for qx := 0.0; qx < 8; qx += 4 {
				for k := 0; k < 2; k++ {
					add(attr, qx, qy, qx+4, qy+4, rates[i%4])
					i++
				}
			}
		}
		for cy := 0.0; cy < 8; cy += 2 {
			for cx := 0.0; cx < 8; cx += 4 {
				for k := 0; k < 2; k++ {
					add(attr, cx, cy, cx+4, cy+2, rates[i%4])
					i++
				}
			}
		}
		for k := 0; k < 8; k++ {
			o := float64(k) * 0.5
			add(attr, 1+o/2, 0.5+o/2, 5+o/2, 3.5+o/2, rates[i%4])
			i++
		}
	}
	out := make([]string, 0, 511)
	for len(out) < 511 {
		out = append(out, forms[len(out)%len(forms)])
	}
	return out
}

var lowRateQueries = []string{
	"ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 2",
	"ACQUIRE rain FROM RECT(4, 4, 8, 8) RATE 2",
	"ACQUIRE rain FROM RECT(2, 2, 6, 6) RATE 1",
}

var workloads = []workload{
	{
		name: "ingest_flood", framesPerEpoch: 64, tuplesPerFrame: 256,
		retention: 4096, probeRate: 1, queries: lowRateQueries, attrs: []string{"rain"},
		warmupEpochs: 80, traceEpochs: 48, genRefUs: 0.38, refEpochs: 32,
	},
	{
		name: "epoch_fanout", framesPerEpoch: 1, tuplesPerFrame: 4096,
		retention: 4096, probeRate: 1, queries: fanoutQueries(), attrs: []string{"rain", "temp"},
		warmupEpochs: 320, traceEpochs: 96, genRefUs: 0.122, refEpochs: 32,
	},
	{
		name: "egress_json", framesPerEpoch: 4, tuplesPerFrame: 1024, json: true,
		retention: 16384, probeRate: 32, attrs: []string{"rain"},
		warmupEpochs: 200, traceEpochs: 64, genRefUs: 1.0, refEpochs: 32,
	},
	{
		name: "durable_crash", framesPerEpoch: 8, tuplesPerFrame: 512, durable: true,
		retention: 4096, probeRate: 1, queries: lowRateQueries, attrs: []string{"rain"},
		warmupEpochs: 200, traceEpochs: 64, genRefUs: 0.40, refEpochs: 32,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a workload for the smoke test: a short warm-up, a short
// traced corpus and fewer residents. Tuples per epoch stay — the queries'
// rates need that density to be deliverable — so the run is made small by
// its window, not its epochs.
func (w workload) scaled(div int) workload {
	w.refEpochs = 8
	w.warmupEpochs = max(w.warmupEpochs/div, w.refEpochs)
	w.traceEpochs = max(w.traceEpochs/div, 3)
	if len(w.queries) > 40 {
		w.queries = w.queries[:40]
	}
	return w
}

// corpus generates a workload's observations from the seed alone: the same
// seed yields the same tuples whatever the codec or batching. Positions and
// event-time offsets are multiples of 1/1000 so their shortest decimal
// rendering is short and round-trips to the identical float64 through the
// JSON codec (check (b) compares streams across codecs byte for byte).
type corpus struct {
	w     workload
	state uint64
	next  uint64 // client-assigned tuple ids 1..N
	buf   []stream.Tuple
}

func newCorpus(w workload, seed int64) *corpus {
	return &corpus{w: w, state: uint64(seed)*0x9e3779b97f4a7c15 + 0x1234567, next: 1}
}

// splitmix64: frozen here so the corpus never changes with the toolchain.
func (c *corpus) rand() uint64 {
	c.state += 0x9e3779b97f4a7c15
	z := c.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// frame fills the reused tuple buffer with frame f of epoch e and returns it
// with the watermark the frame asserts: e+1 on the epoch's last frame, NaN
// otherwise. Frames must be requested in order.
func (c *corpus) frame(e, f int) ([]stream.Tuple, float64) {
	n := c.w.tuplesPerFrame
	if cap(c.buf) < n {
		c.buf = make([]stream.Tuple, n)
	}
	c.buf = c.buf[:n]
	base := f * n
	for k := range c.buf {
		r := c.rand()
		c.buf[k] = stream.Tuple{
			ID:     c.next,
			Attr:   c.w.attrs[(base+k)%len(c.w.attrs)],
			T:      float64(e) + float64(r%1000)/1000,
			X:      float64((r>>10)%8000) / 1000,
			Y:      float64((r>>24)%8000) / 1000,
			Value:  float64((r>>40)%10000) / 100,
			Sensor: int((r >> 54) % 512),
		}
		c.next++
	}
	wm := math.NaN()
	if f == c.w.framesPerEpoch-1 {
		wm = float64(e + 1)
	}
	return c.buf, wm
}

// epoch returns all of epoch e's tuples as one batch (the other-codec replay
// of check (b) pushes one batch per epoch). It allocates; not for hot loops.
func (c *corpus) epoch(e int) []stream.Tuple {
	out := make([]stream.Tuple, 0, c.w.tuplesPerEpoch())
	for f := 0; f < c.w.framesPerEpoch; f++ {
		tuples, _ := c.frame(e, f)
		out = append(out, tuples...)
	}
	return out
}

const contentTypeJSON = "application/json"

// contentType names the ingest codec a workload pushes in.
func contentType(asJSON bool) string {
	if asJSON {
		return contentTypeJSON
	}
	return wire.ContentTypeBinary
}

// encode appends one request body for the batch in the chosen codec.
func encode(dst []byte, asJSON bool, tuples []stream.Tuple, watermark float64) ([]byte, error) {
	if asJSON {
		return appendJSONBatch(dst, tuples, watermark), nil
	}
	return wire.AppendFrame(dst, wire.Batch{Watermark: watermark, Tuples: tuples})
}

// appendJSONBatch renders the ingest route's JSON batch object by hand: a
// producer-side twin of the daemon's zero-allocation decoder, so the
// generator's encode cost stays small next to what it measures.
func appendJSONBatch(dst []byte, tuples []stream.Tuple, watermark float64) []byte {
	dst = append(dst, '{')
	if !math.IsNaN(watermark) {
		dst = append(dst, `"watermark":`...)
		dst = strconv.AppendFloat(dst, watermark, 'g', -1, 64)
		dst = append(dst, ',')
	}
	dst = append(dst, `"observations":[`...)
	for i := range tuples {
		tp := &tuples[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, tp.ID, 10)
		dst = append(dst, `,"attr":"`...)
		dst = append(dst, tp.Attr...)
		dst = append(dst, `","t":`...)
		dst = strconv.AppendFloat(dst, tp.T, 'g', -1, 64)
		dst = append(dst, `,"x":`...)
		dst = strconv.AppendFloat(dst, tp.X, 'g', -1, 64)
		dst = append(dst, `,"y":`...)
		dst = strconv.AppendFloat(dst, tp.Y, 'g', -1, 64)
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendFloat(dst, tp.Value, 'g', -1, 64)
		dst = append(dst, `,"sensor":`...)
		dst = strconv.AppendInt(dst, int64(tp.Sensor), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}
