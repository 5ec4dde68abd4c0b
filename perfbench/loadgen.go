package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client is one load-generator connection: its own transport holding at
// most one connection, so n clients open at most n connections.
type client struct {
	hc *http.Client
	t  *Tracer // nil in untraced runs
}

func newClients(n int, t *Tracer) []*client {
	out := make([]*client, n)
	for i := range out {
		tr := &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		out[i] = &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, t: t}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// errStatus reports a non-2xx answer.
type errStatus int

func (e errStatus) Error() string { return fmt.Sprintf("HTTP status %d", int(e)) }

// do sends one request and reads the whole answer. In traced runs it opens
// the request's root span and hands its id to the server in headers.
func (c *client) do(method, url, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	var sp Span
	if c.t != nil {
		sp = Span{ID: c.t.NewID(), Req: c.t.NewID(), Name: "client", Shard: -1, Start: c.t.Now()}
		setRefHeaders(req.Header, spanRef{req: sp.Req, span: sp.ID})
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.t != nil {
		sp.End = c.t.Now()
		c.t.Add(sp)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, errStatus(resp.StatusCode)
	}
	return out, nil
}

// sendFunc issues operation i on client c and returns how many queries it
// answered. A returned error marks the operation failed.
type sendFunc func(c *client, i int) (queries int, err error)

// closedLoop runs operations 0, 1, 2, … with each client sending its next
// operation only after the previous one completed, for as long as more
// allows the next index.
func closedLoop(clients []*client, more func(i int) bool, send sendFunc) []Op {
	var mu sync.Mutex
	var ops []Op
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				op := Op{Sent: time.Now()}
				q, err := send(c, i)
				op.Done, op.Queries, op.Err = time.Now(), q, err != nil
				mu.Lock()
				for len(ops) <= i {
					ops = append(ops, Op{})
				}
				ops[i] = op
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	// A client that drew an index that more then refused, while another
	// client went on, leaves a hole; drop it.
	kept := ops[:0]
	for _, o := range ops {
		if !o.Sent.IsZero() {
			kept = append(kept, o)
		}
	}
	return kept
}

// upTo allows exactly n operations.
func upTo(n int) func(int) bool { return func(i int) bool { return i < n } }

// serve runs h on a fresh loopback listener with the same server settings
// httpapi.Serve uses, returning the base URL and a stop function that shuts
// the server down and waits for it.
func serve(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "perfbench: serve:", err)
		}
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-done
	}
	return "http://" + l.Addr().String(), stop, nil
}

// waitHealthy polls url/healthz until it answers 200.
func waitHealthy(c *client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := c.do(http.MethodGet, base+"/healthz", "", nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy: %w", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}
