// Package handler implements the paper's request/response handler: the
// component that "has the task of sending data acquisition requests to
// mobile sensors and collecting their responses". Per epoch and per
// (attribute, grid cell) slot it spends the slot's budget β⟨j⟩(q,r) on
// requests to a randomly selected set of mobile sensors — sampled without
// replacement when enough sensors are present in the cell and with
// replacement otherwise — and converts the answers into crowdsensed tuples.
package handler

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/sensors"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Config parameterizes the handler.
type Config struct {
	// EpochLength is the duration of one acquisition round in time units.
	EpochLength float64
	// SkipUnknownAttrs makes RunEpoch skip budget slots whose attribute has
	// no ground-truth field instead of failing the epoch. Mixed-source
	// engines set it: externally fed attributes materialize pipelines (and
	// budget slots) that the simulated fleet cannot serve.
	SkipUnknownAttrs bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.EpochLength <= 0 {
		return errors.New("handler: EpochLength must be positive")
	}
	return nil
}

// IncentiveFunc returns the incentive attached to requests for a slot at a
// given time; the incentive extension (package incentive) plugs in here. A
// nil function means zero incentive.
type IncentiveFunc func(k budget.Key) float64

// Handler drives acquisition epochs over a fleet.
type Handler struct {
	cfg       Config
	grid      *geom.Grid
	fleet     *sensors.Fleet
	fields    map[string]sensors.Field
	budgets   *budget.Controller
	incentive IncentiveFunc
	rng       *stats.RNG
	nextID    atomic.Uint64

	requestsSent   atomic.Uint64
	responsesRecvd atomic.Uint64
}

// New constructs a handler. fields maps attribute names to their ground
// truth; only attributes with registered budget slots are ever requested.
func New(cfg Config, grid *geom.Grid, fleet *sensors.Fleet, fields map[string]sensors.Field, budgets *budget.Controller, rng *stats.RNG) (*Handler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if grid == nil || fleet == nil || budgets == nil || rng == nil {
		return nil, errors.New("handler: New requires grid, fleet, budgets and rng")
	}
	if len(fields) == 0 {
		return nil, errors.New("handler: New requires at least one attribute field")
	}
	return &Handler{cfg: cfg, grid: grid, fleet: fleet, fields: fields, budgets: budgets, rng: rng}, nil
}

// SetIncentive installs the incentive source consulted per request.
func (h *Handler) SetIncentive(f IncentiveFunc) { h.incentive = f }

// RequestsSent returns the total number of acquisition requests issued.
func (h *Handler) RequestsSent() uint64 { return h.requestsSent.Load() }

// ResponsesReceived returns the total number of answered requests.
func (h *Handler) ResponsesReceived() uint64 { return h.responsesRecvd.Load() }

// EncodeState appends what the next epoch's requests depend on to w: the
// handler's generator, its tuple ID and request counters, the fleet, and the
// generators of fields that draw noise (sorted by attribute).
func (h *Handler) EncodeState(w *codec.Writer) {
	h.rng.EncodeState(w)
	w.Uvarint(h.nextID.Load())
	w.Uvarint(h.requestsSent.Load())
	w.Uvarint(h.responsesRecvd.Load())
	h.fleet.EncodeState(w)
	for _, attr := range h.noisyFields() {
		h.fields[attr].(noisyField).EncodeState(w)
	}
}

// DecodeState restores what EncodeState wrote into a handler built from the
// same configuration.
func (h *Handler) DecodeState(r *codec.Reader) {
	h.rng.DecodeState(r)
	h.nextID.Store(r.Uvarint())
	h.requestsSent.Store(r.Uvarint())
	h.responsesRecvd.Store(r.Uvarint())
	h.fleet.DecodeState(r)
	for _, attr := range h.noisyFields() {
		h.fields[attr].(noisyField).DecodeState(r)
	}
}

// noisyField is a field that draws randomness as it is read, like
// sensors.TempField's measurement noise; a snapshot keeps its generator.
type noisyField interface {
	sensors.Field
	EncodeState(w *codec.Writer)
	DecodeState(r *codec.Reader)
}

// noisyFields returns the attributes whose fields are noisyFields, sorted.
func (h *Handler) noisyFields() []string {
	var attrs []string
	for attr, f := range h.fields {
		if _, ok := f.(noisyField); ok {
			attrs = append(attrs, attr)
		}
	}
	sort.Strings(attrs)
	return attrs
}

// RunEpoch executes one acquisition round starting at time t0: for every
// registered budget slot it sends β requests to randomly chosen sensors in
// the slot's cell and gathers the responses that arrive within the epoch
// horizon. It returns one batch per attribute covering the whole gridded
// region over [t0, t0+EpochLength); the fabricator's map phase assigns
// tuples to cells. The fleet is advanced to the end of the epoch afterwards.
func (h *Handler) RunEpoch(t0 float64) (map[string]stream.Batch, error) {
	window := geom.Window{T0: t0, T1: t0 + h.cfg.EpochLength, Rect: h.grid.Region()}
	out := make(map[string]stream.Batch)
	for _, snap := range h.budgets.Snapshots() {
		field, ok := h.fields[snap.Key.Attr]
		if !ok {
			if h.cfg.SkipUnknownAttrs {
				continue
			}
			return nil, fmt.Errorf("handler: no field for attribute %q", snap.Key.Attr)
		}
		cellRect, err := h.grid.Cell(snap.Key.Cell)
		if err != nil {
			return nil, fmt.Errorf("handler: budget slot %v: %w", snap.Key, err)
		}
		inCell := h.fleet.InRect(cellRect)
		nRequests := int(snap.Budget)
		if nRequests <= 0 || len(inCell) == 0 {
			continue
		}
		targets := h.sampleSensors(inCell, nRequests)
		incentive := 0.0
		if h.incentive != nil {
			incentive = h.incentive(snap.Key)
		}
		b := out[snap.Key.Attr]
		b.Attr = snap.Key.Attr
		b.Window = window
		for _, s := range targets {
			h.requestsSent.Add(1)
			// Spread request times uniformly over the epoch so arrival
			// times are not synchronized at epoch boundaries.
			reqTime := h.rng.Uniform(t0, t0+h.cfg.EpochLength)
			obs := s.Request(reqTime, incentive, field)
			if !obs.Answered {
				continue
			}
			if obs.T >= window.T1 {
				continue // response arrived after the epoch horizon
			}
			h.responsesRecvd.Add(1)
			b.Tuples = append(b.Tuples, stream.Tuple{
				ID:     h.nextID.Add(1),
				Attr:   snap.Key.Attr,
				T:      obs.T,
				X:      obs.Pos.X,
				Y:      obs.Pos.Y,
				Value:  obs.Value,
				Sensor: obs.Sensor,
			})
		}
		out[snap.Key.Attr] = b
	}
	h.fleet.Step(h.cfg.EpochLength)
	return out, nil
}

// sampleSensors picks n request targets from the candidates: without
// replacement when enough sensors are available, with replacement otherwise,
// matching the paper ("mobile sensors are sampled with or without
// replacement, depending on the number of mobile sensors available").
func (h *Handler) sampleSensors(candidates []*sensors.Sensor, n int) []*sensors.Sensor {
	if n >= len(candidates) {
		// With replacement: every candidate may be asked multiple times.
		out := make([]*sensors.Sensor, n)
		for i := range out {
			out[i] = candidates[h.rng.Intn(len(candidates))]
		}
		return out
	}
	// Without replacement: partial Fisher–Yates.
	idx := h.rng.Perm(len(candidates))[:n]
	out := make([]*sensors.Sensor, n)
	for i, j := range idx {
		out[i] = candidates[j]
	}
	return out
}
