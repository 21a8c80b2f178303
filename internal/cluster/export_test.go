package cluster

// Pool exposes the gateway's failure detector to the external tests, which
// run its probe rounds by hand instead of on Run's ticker.
func (g *Gateway) Pool() *Pool { return g.pool }
