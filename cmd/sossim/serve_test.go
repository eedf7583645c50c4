package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"sos/internal/fleetd"
)

// TestServeTimeouts pins the daemon's connection timeouts: a client
// that sends half a request line is disconnected once the header
// timeout passes, while /healthz on a second connection still answers.
// No read or write timeout is set, so a long streamed advance is never
// cut off.
func TestServeTimeouts(t *testing.T) {
	srv := newServer(fleetd.New(fleetd.Config{Workers: 1}).Handler())
	if srv.ReadHeaderTimeout != serveHeaderTimeout || srv.IdleTimeout != serveIdleTimeout || srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %v idle %v read %v write %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	const headerTimeout = 300 * time.Millisecond
	srv.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	if _, err := io.WriteString(stalled, "GET /heal"); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz beside a stalled client: %d %q %v", resp.StatusCode, body, err)
	}

	// The server answers the torn request line with a 400 and closes
	// the connection; a read deadline error here would mean it kept the
	// connection open.
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed < headerTimeout {
		t.Fatalf("stalled connection closed after %v, before the %v header timeout", elapsed, headerTimeout)
	}
}
