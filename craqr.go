// Package craqr is the public API of the CrAQR reproduction: crowdsensed
// data acquisition using multi-dimensional point processes (Sathe, Sellis,
// Aberer; ICDE Workshops 2015).
//
// The package re-exports the supported surface of the internal packages so
// downstream users import a single path:
//
//   - geometry (Rect, Window, and the Grid an engine partitions);
//   - events, the Eq. (1) linear intensity and its MLE fit;
//   - the T PMAT operator;
//   - acquisitional queries and their CrAQL rendering;
//   - the full engine (sensors → handler → fabricator → streams).
//
// Quickstart:
//
//	engine, _ := craqr.NewEngine(cfg, fields)
//	q, _ := engine.SubmitCRAQL("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10")
//	_ = engine.Run(100)                            // or engine.Start(ctx) for a clocked engine
//	store, _ := engine.ResultStore(q.ID)
//	tuples, next, dropped := store.ReadFrom(0, 0, nil)
//	// … later: resume from `next`; `dropped` counts tuples evicted from
//	// the query's bounded ResultStore before this reader arrived.
//
// Every query's fabricated stream lands in a bounded ring-buffer
// ResultStore (EngineConfig.Retention tuples) addressed by monotonic
// cursors, so a never-read query costs O(retention) memory while epochs
// keep running. Engines advance either manually (Step/Run) or on their own
// clock (EngineConfig.Clock + Start/Stop: wall-clock ticks or back-to-back
// simulated epochs, with a graceful drain on cancellation). A Manager hosts
// many named engine sessions behind one process — create/get/list/destroy,
// per-session seeds and clocks, lazy idle GC — and NewManagerHTTPServer
// serves it over JSON/HTTP with cursor-paginated reads and push delivery
// (ndjson or SSE); cmd/craqrd is the ready-made daemon.
//
// Epochs execute cell pipelines on a sharded worker pool sized by
// EngineConfig.Fabricator.Workers (0 = GOMAXPROCS, 1 = serial); per-cell
// keyed RNG forks and a deterministic merge phase make serial and parallel
// runs of the same Seed fabricate byte-identical streams, and queries may
// be submitted concurrently with Run. See examples/ for runnable programs
// (examples/sessiondemo drives the session API) and DESIGN.md for the
// architecture, concurrency model, and result-retention contract.
package craqr

import (
	"io"

	"repro/internal/budget"
	"repro/internal/craql"
	"repro/internal/estimate"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/inference"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/mobility"
	"repro/internal/planner"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Geometry.
type (
	// Point is a planar location.
	Point = geom.Point
	// Rect is an axis-aligned half-open rectangle (a region).
	Rect = geom.Rect
	// Window is a spatio-temporal box [T0,T1) × Rect.
	Window = geom.Window
	// Grid is the logical √h×√h partitioning of the region of interest.
	Grid = geom.Grid
)

// NewRect constructs a rectangle, normalizing coordinate order.
func NewRect(x0, y0, x1, y1 float64) Rect { return geom.NewRect(x0, y0, x1, y1) }

// NewWindow constructs a spatio-temporal window.
func NewWindow(t0, t1 float64, r Rect) Window { return geom.NewWindow(t0, t1, r) }

// Randomness.
type (
	// RNG is the seeded random generator used across the library.
	RNG = stats.RNG
)

// NewRNG returns a deterministic generator for the seed.
func NewRNG(seed int64) *RNG { return stats.NewRNG(seed) }

// Point processes and intensities.
type (
	// Event is one point of a process.
	Event = mdpp.Event
	// Theta holds the parameters of the paper's Eq. (1) linear rate.
	Theta = intensity.Theta
	// LinearIntensity is the Eq. (1) parametric rate.
	LinearIntensity = intensity.Linear
)

// NewLinearIntensity returns the paper's Eq. (1) rate with parameters θ.
func NewLinearIntensity(theta Theta) LinearIntensity { return intensity.NewLinear(theta) }

// FitMLE fits Eq. (1) to events observed on a window by maximum likelihood.
func FitMLE(events []Event, w Window) (Theta, error) {
	res, err := estimate.FitMLE(events, w)
	if err != nil {
		return Theta{}, err
	}
	return res.Theta, nil
}

// Streams and operators.
type (
	// Tuple is one crowdsensed observation.
	Tuple = stream.Tuple
	// Batch groups same-attribute tuples over a window.
	Batch = stream.Batch
	// Processor consumes batches.
	Processor = stream.Processor
	// ResultStore is the bounded, cursor-addressable ring buffer that holds
	// a query's most recent tuples and accounts evictions as drops.
	ResultStore = stream.ResultStore
	// Thin is the T PMAT operator.
	Thin = pmat.Thin
)

// NewThin constructs a T-operator thinning λ1 down to λ2.
func NewThin(name string, lambda1, lambda2 float64, rng *RNG) (*Thin, error) {
	return pmat.NewThin(name, lambda1, lambda2, rng)
}

// Queries.
type (
	// Query is an acquisitional query: attribute, region, rate.
	Query = query.Query
)

// FormatCRAQL renders a query back into CrAQL syntax.
func FormatCRAQL(q Query) string { return craql.Format(q) }

// Simulation substrate.
type (
	// Field is a ground-truth spatio-temporal attribute.
	Field = sensors.Field
	// RainField is the moving-storm boolean rain attribute.
	RainField = sensors.RainField
	// TempField is the smooth temperature attribute.
	TempField = sensors.TempField
	// Storm is one moving rain cell.
	Storm = sensors.Storm
	// FleetConfig describes a synthetic mobile-sensor fleet.
	FleetConfig = sensors.FleetConfig
	// ResponseModel governs sensor response probability and latency.
	ResponseModel = sensors.ResponseModel
	// MobilityHotspot is an attraction point for hotspot walkers.
	MobilityHotspot = mobility.Hotspot
)

// NewRainField creates a rain field over region with the given storms.
func NewRainField(region Rect, storms []Storm) (*RainField, error) {
	return sensors.NewRainField(region, storms)
}

// NewTempField creates a temperature field. rng may be nil when noiseStd
// is zero.
func NewTempField(base, gradX, gradY, diurnal, period, noiseStd float64, rng *RNG) (*TempField, error) {
	return sensors.NewTempField(base, gradX, gradY, diurnal, period, noiseStd, rng)
}

// Engine.
type (
	// Engine is a running CrAQR instance (Fig. 1).
	Engine = server.Engine
	// EngineConfig assembles an engine.
	EngineConfig = server.Config
	// HTTPServer exposes a session manager over JSON/HTTP.
	HTTPServer = server.HTTPServer
	// Manager hosts many named engine sessions behind one process.
	Manager = server.Manager
	// ManagerConfig assembles a session manager.
	ManagerConfig = server.ManagerConfig
	// Session is one named engine hosted by a Manager.
	Session = server.Session
	// SessionSpec is the per-session configuration for Manager.Create.
	SessionSpec = server.SessionSpec
	// EngineFactory builds a session's engine from its spec.
	EngineFactory = server.EngineFactory
	// BudgetConfig parameterizes budget tuning.
	BudgetConfig = budget.Config
)

// NewEngine assembles a CrAQR engine from the config and ground-truth
// fields.
func NewEngine(cfg EngineConfig, fields map[string]Field) (*Engine, error) {
	return server.New(cfg, fields)
}

// NewManager builds a session manager hosting many named engines.
func NewManager(cfg ManagerConfig) (*Manager, error) { return server.NewManager(cfg) }

// NewManagerHTTPServer exposes a session manager over the /v1 JSON/HTTP API.
func NewManagerHTTPServer(m *Manager) (*HTTPServer, error) {
	return server.NewManagerHTTPServer(m, "")
}

// NewEngineFactory adapts a template EngineConfig and per-session field
// builder into the factory a Manager uses to build session engines.
func NewEngineFactory(template EngineConfig, fields func() (map[string]Field, error)) EngineFactory {
	return server.NewEngineFactory(template, fields)
}

// Stream plumbing, export and inference.
type (
	// Tee fans a stream out to several processors.
	Tee = stream.Tee
	// JSONLinesSink persists a fabricated stream as ndjson.
	JSONLinesSink = export.JSONLinesSink
	// CoverageEstimator infers areal coverage of a boolean attribute.
	CoverageEstimator = inference.CoverageEstimator
	// CoverageEstimate is one window's coverage with a Wilson interval.
	CoverageEstimate = inference.CoverageEstimate
	// EventDetector extracts threshold-crossing episodes with hysteresis.
	EventDetector = inference.EventDetector
	// DetectedEvent is one episode found by an EventDetector.
	DetectedEvent = inference.Event
)

// NewJSONLinesSink writes tuples to w as one JSON object per line.
func NewJSONLinesSink(w io.Writer) (*JSONLinesSink, error) { return export.NewJSONLinesSink(w) }

// NewCoverageEstimator buckets boolean samples into windows of windowLen.
func NewCoverageEstimator(windowLen float64) (*CoverageEstimator, error) {
	return inference.NewCoverageEstimator(windowLen)
}

// NewEventDetector creates a hysteresis detector with thresholds off < on.
func NewEventDetector(on, off float64) (*EventDetector, error) {
	return inference.NewEventDetector(on, off)
}

// Query-cost planning (the Section VI query-optimization extension) is a
// what-if: Engine.Explain prices a CrAQL statement (EXPLAIN or plain)
// without submitting, and PlanExplanation.Table is the canonical text
// rendering every EXPLAIN surface shares. Submit prices nothing: every query
// is built with the one merge layout the planner prices.
type (
	// CostEstimate prices a query's plan.
	CostEstimate = planner.CostEstimate
	// PlanExplanation is the pricing of one query.
	PlanExplanation = planner.Explanation
)
