package sensors

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/stats"
)

// ResponseModel governs whether and when a mobile sensor answers an
// acquisition request. The paper emphasizes that responses are
// uncontrollable: a human "could be unpredictably delayed" or decline when
// "the incentive offered for responding is not enough". The model captures
// both effects:
//
//	P(respond | incentive i) = BaseProb + (MaxProb − BaseProb)·(1 − exp(−i/IncentiveScale))
//
// and response latency is exponential with the given mean.
type ResponseModel struct {
	BaseProb       float64 // response probability at zero incentive
	MaxProb        float64 // asymptotic probability at infinite incentive
	IncentiveScale float64 // incentive units to reach ~63% of the gap
	MeanLatency    float64 // mean response delay (time units)
}

// Validate checks the model's parameters.
func (m ResponseModel) Validate() error {
	if m.BaseProb < 0 || m.BaseProb > 1 {
		return fmt.Errorf("sensors: BaseProb %g outside [0,1]", m.BaseProb)
	}
	if m.MaxProb < m.BaseProb || m.MaxProb > 1 {
		return fmt.Errorf("sensors: MaxProb %g outside [BaseProb, 1]", m.MaxProb)
	}
	if m.IncentiveScale <= 0 {
		return errors.New("sensors: IncentiveScale must be positive")
	}
	if m.MeanLatency < 0 {
		return errors.New("sensors: MeanLatency must be non-negative")
	}
	return nil
}

// RespondProb returns the response probability under the given incentive.
func (m ResponseModel) RespondProb(incentive float64) float64 {
	if incentive < 0 {
		incentive = 0
	}
	return m.BaseProb + (m.MaxProb-m.BaseProb)*(1-math.Exp(-incentive/m.IncentiveScale))
}

// Sensor is one mobile sensor s_i: a walker, a response model, and a GPS
// error level. Sensors have local memory in the sense that a response
// carries the value observed at response time at the sensor's true position.
type Sensor struct {
	ID       int
	Walker   *mobility.Walker
	Response ResponseModel
	GPSStd   float64 // standard deviation of reported-position error
	rng      *stats.RNG
}

// NewSensor constructs a sensor. Each sensor owns an independent RNG fork so
// fleets are deterministic regardless of iteration order.
func NewSensor(id int, w *mobility.Walker, resp ResponseModel, gpsStd float64, rng *stats.RNG) (*Sensor, error) {
	if w == nil {
		return nil, errors.New("sensors: NewSensor requires a walker")
	}
	if err := resp.Validate(); err != nil {
		return nil, err
	}
	if gpsStd < 0 {
		return nil, errors.New("sensors: GPS error std must be non-negative")
	}
	if rng == nil {
		return nil, errors.New("sensors: NewSensor requires an RNG")
	}
	return &Sensor{ID: id, Walker: w, Response: resp, GPSStd: gpsStd, rng: rng}, nil
}

// Position returns the sensor's true position.
func (s *Sensor) Position() geom.Point { return s.Walker.Position() }

// ReportedPosition returns the position the sensor would report: the true
// position perturbed by GPS noise.
func (s *Sensor) ReportedPosition() geom.Point {
	p := s.Walker.Position()
	if s.GPSStd > 0 {
		p.X += s.rng.Normal(0, s.GPSStd)
		p.Y += s.rng.Normal(0, s.GPSStd)
	}
	return p
}

// Observation is a sensor's answer to one acquisition request.
type Observation struct {
	Sensor   int
	T        float64    // response time (request time + latency)
	Pos      geom.Point // reported position at response time
	Value    float64
	Answered bool
}

// Request asks the sensor, at time now and under the given incentive, to
// observe field. The returned observation has Answered=false when the sensor
// declines. When it answers, the latency is sampled, the walker is NOT
// advanced (the handler owns global time), and the value is read from the
// field at the sensor's true position at response time.
func (s *Sensor) Request(now float64, incentive float64, field Field) Observation {
	if !s.rng.Bernoulli(s.Response.RespondProb(incentive)) {
		return Observation{Sensor: s.ID, Answered: false}
	}
	latency := 0.0
	if s.Response.MeanLatency > 0 {
		latency = s.rng.Exponential(1 / s.Response.MeanLatency)
	}
	t := now + latency
	truePos := s.Position()
	reported := s.ReportedPosition()
	return Observation{
		Sensor:   s.ID,
		T:        t,
		Pos:      reported,
		Value:    field.Value(t, truePos.X, truePos.Y),
		Answered: true,
	}
}

// Fleet is the set of mobile sensors in the region of interest.
type Fleet struct {
	Sensors []*Sensor
}

// NewFleet wraps a sensor list for a region, which must be non-empty.
func NewFleet(region geom.Rect, sensors []*Sensor) (*Fleet, error) {
	if region.IsEmpty() {
		return nil, errors.New("sensors: NewFleet requires a non-empty region")
	}
	return &Fleet{Sensors: sensors}, nil
}

// Step advances every sensor by dt.
func (f *Fleet) Step(dt float64) {
	for _, s := range f.Sensors {
		s.Walker.Step(dt)
	}
}

// InRect returns the sensors whose true position currently lies in r.
func (f *Fleet) InRect(r geom.Rect) []*Sensor {
	var out []*Sensor
	for _, s := range f.Sensors {
		if r.Contains(s.Position()) {
			out = append(out, s)
		}
	}
	return out
}

// EncodeState appends every sensor's generator and walker state to w, in
// fleet order.
func (f *Fleet) EncodeState(w *codec.Writer) {
	w.Uvarint(uint64(len(f.Sensors)))
	for _, s := range f.Sensors {
		s.rng.EncodeState(w)
		s.Walker.EncodeState(w)
	}
}

// DecodeState restores what EncodeState wrote into a fleet built from the
// same configuration.
func (f *Fleet) DecodeState(r *codec.Reader) {
	if n := r.Uvarint(); n != uint64(len(f.Sensors)) {
		r.Failf("%d sensors saved, the fleet has %d", n, len(f.Sensors))
		return
	}
	for _, s := range f.Sensors {
		s.rng.DecodeState(r)
		s.Walker.DecodeState(r)
	}
}

// FleetConfig describes a synthetic fleet for BuildFleet.
type FleetConfig struct {
	N        int                // number of sensors
	Hotspots []mobility.Hotspot // when non-empty, sensors are hotspot walkers
	Dwell    float64            // dwell/pause time at destinations
	Response ResponseModel
	GPSStd   float64
	// UniformFraction in [0,1]: fraction of sensors that use uniform
	// random-waypoint motion instead of hotspot attraction. A small uniform
	// fraction keeps low-density cells from being entirely empty.
	UniformFraction float64
}

// BuildFleet constructs a deterministic synthetic fleet from the config.
func BuildFleet(region geom.Rect, cfg FleetConfig, rng *stats.RNG) (*Fleet, error) {
	if cfg.N <= 0 {
		return nil, errors.New("sensors: BuildFleet requires N > 0")
	}
	if cfg.UniformFraction < 0 || cfg.UniformFraction > 1 {
		return nil, errors.New("sensors: UniformFraction outside [0,1]")
	}
	// Walkers move at 1–2 % of the region's half-perimeter per unit time.
	vmin := 0.01 * (region.Width() + region.Height())
	vmax := 2 * vmin
	list := make([]*Sensor, 0, cfg.N)
	nUniform := int(cfg.UniformFraction * float64(cfg.N))
	for i := 0; i < cfg.N; i++ {
		wrng := rng.Fork()
		var (
			w   *mobility.Walker
			err error
		)
		if len(cfg.Hotspots) == 0 || i < nUniform {
			w, err = mobility.NewRandomWaypoint(region, vmin, vmax, cfg.Dwell, wrng)
		} else {
			w, err = mobility.NewHotspotWalker(region, cfg.Hotspots, vmin, vmax, cfg.Dwell, wrng)
		}
		if err != nil {
			return nil, err
		}
		s, err := NewSensor(i, w, cfg.Response, cfg.GPSStd, rng.Fork())
		if err != nil {
			return nil, err
		}
		list = append(list, s)
	}
	return NewFleet(region, list)
}
