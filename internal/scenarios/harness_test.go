package scenarios

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/budget"
	"repro/internal/geom"
	"repro/internal/sensors"
	"repro/internal/server"
	"repro/internal/wire"
)

// worldConfig mirrors the server package's test world (8×8 region, 16-cell
// grid, 300 sensors, seed 1) so scenario runs are deterministic and
// comparable with the unit suites. The server test helpers are not
// importable across packages, hence the copy.
func worldConfig() server.Config {
	return server.Config{
		Region:    geom.NewRect(0, 0, 8, 8),
		GridCells: 16,
		Epoch:     1,
		Budget:    budget.Config{Initial: 20, Delta: 5, Min: 5, Max: 200, ViolationThreshold: 10},
		Fleet: sensors.FleetConfig{
			N:        300,
			Response: sensors.ResponseModel{BaseProb: 0.7, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.02},
		},
		Seed: 1,
	}
}

// worldFields is the ground-truth field builder for the scenario world; it
// matches server.NewEngineFactory's builder signature so every session
// owns an independent copy.
func worldFields() (map[string]sensors.Field, error) {
	rain, err := sensors.NewRainField(geom.NewRect(0, 0, 8, 8), []sensors.Storm{{X0: 2, Y0: 2, VX: 0.1, VY: 0, Radius: 2}})
	if err != nil {
		return nil, err
	}
	temp, err := sensors.NewTempField(20, 0.2, 0, 3, 24, 0, nil)
	if err != nil {
		return nil, err
	}
	return map[string]sensors.Field{"rain": rain, "temp": temp}, nil
}

// cluster is one running manager + HTTP gateway. close is idempotent so
// tests that shut down explicitly (crash-recovery) coexist with t.Cleanup.
type cluster struct {
	m    *server.Manager
	ts   *httptest.Server
	c    *http.Client
	once sync.Once
}

func startCluster(t *testing.T, template server.Config, mcfg server.ManagerConfig) *cluster {
	t.Helper()
	mcfg.NewEngine = server.NewEngineFactory(template, worldFields)
	m, err := server.NewManager(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := server.NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	cl := &cluster{m: m, ts: ts, c: ts.Client()}
	t.Cleanup(cl.close)
	return cl
}

func (cl *cluster) close() {
	cl.once.Do(func() {
		cl.ts.Close()
		if err := cl.m.Close(); err != nil {
			// Close after an explicit Close is already covered by once; a
			// real close error here should fail loudly in the test log.
			panic(err)
		}
	})
}

func (cl *cluster) url(path string) string { return cl.ts.URL + path }

// do issues one request and decodes the JSON response into out (when
// non-nil), failing the test on any status other than wantStatus.
func do(t *testing.T, c *http.Client, method, url, body string, wantStatus int, out interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(body, "{") {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s: %v: %s", method, url, err, data)
		}
	}
}

// accounted is the ack's full tuple accounting: every pushed tuple must
// land in exactly one bucket (late is a subset of accepted, not its own).
func accounted(a client.Ack) int {
	return a.Accepted + a.Dropped + a.LateDropped + a.Rejected + a.Duplicates
}

// unmarshalAck decodes an ack body, returning an error instead of failing
// the test so goroutines off the test's own can report via t.Error.
func unmarshalAck(data []byte, a *client.Ack) error {
	if err := json.Unmarshal(data, a); err != nil {
		return fmt.Errorf("decode ack: %w: %s", err, data)
	}
	return nil
}

// jsonBody renders a batch as the documented JSON ingest request body.
func jsonBody(t *testing.T, b wire.Batch) []byte {
	t.Helper()
	body := client.Batch{Attr: b.Attr}
	if !math.IsNaN(b.Watermark) {
		body.Watermark = &b.Watermark
	}
	for _, tp := range b.Tuples {
		o := client.Observation{ID: tp.ID, T: tp.T, X: tp.X, Y: tp.Y, Value: tp.Value}
		if tp.Attr != b.Attr {
			o.Attr = tp.Attr
		}
		if tp.Sensor >= 0 {
			s := tp.Sensor
			o.Sensor = &s
		}
		body.Observations = append(body.Observations, o)
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// postRaw issues one POST and returns the status, headers and body without
// judging the outcome — adversarial tests assert on refusals.
func postRaw(t *testing.T, c *http.Client, url, ctype string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// pushJSON pushes one batch as JSON and returns the decoded ack, failing
// on any non-200 status.
func pushJSON(t *testing.T, c *http.Client, url string, b wire.Batch) client.Ack {
	t.Helper()
	status, _, data := postRaw(t, c, url, "application/json", jsonBody(t, b))
	if status != http.StatusOK {
		t.Fatalf("push = %d: %s", status, data)
	}
	var a client.Ack
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatalf("decode ack: %v: %s", err, data)
	}
	return a
}

// getBody GETs a URL and returns the raw body (for bytewise comparisons).
func getBody(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// getStatus fetches and decodes a session's /status document.
func getStatus(t *testing.T, c *http.Client, url string) client.Status {
	t.Helper()
	var st client.Status
	do(t, c, "GET", url, "", 200, &st)
	return st
}

// mkSpec renders a create-session body from a map, keeping call sites
// terse and the field names visible at the point of use.
func mkSpec(t *testing.T, fields map[string]interface{}) string {
	t.Helper()
	data, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
