package server

import (
	"net/http"

	"repro/client"
)

// HeaderExpectNode is the routing assertion a cluster gateway stamps onto
// every proxied request: the advertised name of the node the gateway's ring
// says owns the session. A node-mode server whose name differs answers 421
// (Misdirected Request) without touching any state — the defense against a
// stale ring or a misconfigured load balancer letting two nodes append to
// one session's WAL.
const HeaderExpectNode = "X-CrAQR-Expect-Node"

// SetNodeName puts the server in cluster node mode under the given
// advertised name: /v1/healthz reports it, and requests carrying a
// mismatched HeaderExpectNode are refused with 421. Empty restores
// standalone behavior.
func (s *HTTPServer) SetNodeName(name string) { s.nodeName = name }

// handleNodeDurable lists every session with durable state under this
// node's durability root, live or not. Nodes sharing one volume all report
// the same set; the gateway scans it to reconcile ring ownership.
func (s *HTTPServer) handleNodeDurable(w http.ResponseWriter, r *http.Request) {
	names, err := s.manager.DurableSessions()
	if err != nil {
		WriteError(w, err, http.StatusInternalServerError)
		return
	}
	if names == nil {
		names = []string{}
	}
	s.writeJSON(w, http.StatusOK, client.DurableSessions{Sessions: names})
}

// handleNodeRecover re-adopts one session from the shared durability
// volume by deterministic WAL replay — the receiving half of a session
// handoff. Idempotent: recovering an already-live session reports
// recovered=false and changes nothing.
func (s *HTTPServer) handleNodeRecover(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("session")
	recovered, err := s.manager.RecoverSession(name)
	if err != nil {
		WriteError(w, err, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusOK, client.Recovered{Recovered: recovered, Session: name})
}

// handleNodeRelease stops serving a session while keeping its durable
// state — the giving half of a handoff when the old owner is still alive
// (ring rebalance on node join). Streams end cleanly; the WAL stays for
// the new owner to replay.
func (s *HTTPServer) handleNodeRelease(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("session")
	if err := s.manager.Release(name); err != nil {
		WriteError(w, err, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusOK, client.Released{Released: true, Session: name})
}
