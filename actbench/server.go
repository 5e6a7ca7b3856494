package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"act/internal/serve"
)

// actd is one in-process server on a loopback listener, configured the
// way cmd/actd configures it by default. Its JSON request log goes to
// io.Discard, so the cost of formatting every log line stays in.
type actd struct {
	srv      *serve.Server
	url      string
	hs       *http.Server // set when the handler is served through a wrapper
	done     chan error
	stopOnce sync.Once
	stopErr  error
}

// serverOpts selects the optional pieces a workload adds to the default
// server.
type serverOpts struct {
	durable bool                            // fleet store on a RAM filesystem
	wrap    func(http.Handler) http.Handler // traced runs wrap the handler
}

func startActd(o serverOpts) (*actd, error) {
	srv := serve.New(serve.Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	if o.durable {
		// cmd/actd's default compaction cadence, with the store on RAM.
		if err := srv.OpenFleet(context.Background(), serve.FleetDurability{
			SnapshotPath:    "fleet/snapshot",
			WALDir:          "fleet/wal",
			CompactInterval: 5 * time.Minute,
			FS:              newRAMFS(),
		}); err != nil {
			return nil, fmt.Errorf("opening fleet store: %w", err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &actd{srv: srv, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	if o.wrap == nil {
		go func() { a.done <- srv.Serve(l) }()
		return a, nil
	}
	a.hs = &http.Server{Handler: o.wrap(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		err := a.hs.Serve(l)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		a.done <- err
	}()
	return a, nil
}

// stop drains the server, closes its fleet store and waits for Serve to
// return. Later calls return the first call's result.
func (a *actd) stop() error {
	a.stopOnce.Do(func() { a.stopErr = a.shutdown() })
	return a.stopErr
}

func (a *actd) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if a.hs != nil {
		err = a.hs.Shutdown(ctx)
	} else {
		err = a.srv.Shutdown(ctx)
	}
	if cerr := a.srv.CloseFleet(); err == nil {
		err = cerr
	}
	if serr := <-a.done; err == nil {
		err = serr
	}
	return err
}

// startCluster starts n members and enables cluster mode on each with the
// full membership. Member 0 is the coordinator the clients talk to.
func startCluster(n int, wrap func(member int) func(http.Handler) http.Handler) ([]*actd, error) {
	members := make([]*actd, 0, n)
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var o serverOpts
		if wrap != nil {
			o.wrap = wrap(i)
		}
		a, err := startActd(o)
		if err != nil {
			stopAll(members)
			return nil, err
		}
		members = append(members, a)
		urls = append(urls, a.url)
	}
	for i, a := range members {
		if err := a.srv.EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls}); err != nil {
			stopAll(members)
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
	}
	return members, nil
}

func stopAll(as []*actd) error {
	var first error
	for _, a := range as {
		if err := a.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// conn is one client connection: a transport limited to a single TCP
// connection, used by one goroutine at a time.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do sends one request and returns the status and the response body. The
// body aliases the connection's buffer and is valid until the next call.
func (c *conn) do(method, path string, body []byte, reqID string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// scrape reads a server's /metrics.
func scrape(c *conn) (promScrape, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return parseProm(bytes.NewReader(body))
}

// scrapeAll sums the /metrics of several servers.
func scrapeAll(as []*actd) (promScrape, error) {
	sum := promScrape{}
	for _, a := range as {
		c := newConn(a.url)
		s, err := scrape(c)
		c.close()
		if err != nil {
			return nil, err
		}
		sum.add(s)
	}
	return sum, nil
}

// reqID names request n of a run for X-Request-Id.
func reqID(n int) string { return "b-" + strconv.Itoa(n) }
