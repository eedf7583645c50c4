package main

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// Connection timeouts of the fleet daemon. A client must finish its
// request headers within serveHeaderTimeout, and a keep-alive
// connection with no request in flight closes after serveIdleTimeout,
// so neither a stalled nor an abandoned client holds a connection
// forever.
//
// There is deliberately no ReadTimeout or WriteTimeout. A streamed
// advance writes for seconds or minutes, so any write deadline would cut
// it off. A read deadline is no better: in net/http, a read deadline
// that expires while a handler runs fails the connection's background
// read, and that cancels the request's context, aborting the advance
// (connReader.backgroundRead -> handleReadError). Request bodies are
// bounded by size in internal/fleetd instead.
const (
	serveHeaderTimeout = 10 * time.Second
	serveIdleTimeout   = 2 * time.Minute
)

// newServer wraps the daemon's handler in an http.Server with the
// connection timeouts above.
func newServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: serveHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// serve hosts the fleet daemon (internal/fleetd) on addr. It prints one
// line — "sossim: serving on http://HOST:PORT" — once the listener is
// bound, which is the handshake cmd/fleetsmoke (and humans using
// -addr :0) parse to find the actual port, then blocks serving until
// the process is killed.
func serve(addr string, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("sossim: serving on http://%s\n", ln.Addr())
	return newServer(handler).Serve(ln)
}
