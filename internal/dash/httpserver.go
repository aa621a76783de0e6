package dash

import (
	"net/http"
	"time"
)

// Protective timeouts applied to every testbed http.Server. A server with
// zero timeouts keeps a goroutine and a connection alive for as long as a
// slow (or malicious) peer cares to dribble bytes — exactly the resource
// exhaustion the overload-protection layer exists to prevent, reachable
// from below the middleware. Write timeouts are deliberately absent:
// segment bodies stream through the trace shaper, so a legitimate response
// can take arbitrarily long at low bandwidth; the write side is bounded by
// the client's own deadlines instead.
const (
	// DefaultReadHeaderTimeout bounds how long a connection may take to
	// deliver its request header.
	DefaultReadHeaderTimeout = 10 * time.Second
	// DefaultReadTimeout bounds reading one full request (the testbed only
	// serves tiny GETs, so a slow request body is an attack, not a client).
	DefaultReadTimeout = 30 * time.Second
	// DefaultIdleTimeout reaps keep-alive connections with no request in
	// flight.
	DefaultIdleTimeout = 120 * time.Second
)

// NewHTTPServer returns an http.Server for h with the repository-standard
// protective timeouts set. Every http.Server literal in the testbed and the
// commands goes through this constructor so none of them
// can regress to the unbounded zero-value configuration.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		ReadTimeout:       DefaultReadTimeout,
		IdleTimeout:       DefaultIdleTimeout,
	}
}
