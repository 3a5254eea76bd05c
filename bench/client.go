package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Wire names of the serving protocol (internal/coord keeps them unexported).
const (
	contentTypeTensor = "application/x-flint-tensor"
	hdrDevice         = "X-Flint-Device"
	hdrRound          = "X-Flint-Round"
	hdrBaseVersion    = "X-Flint-Base-Version"
	hdrWeight         = "X-Flint-Weight"
	hdrDelta          = "X-Flint-Delta"
)

// client is one of the benchmark's two closed-loop load generators: one
// goroutine, one keep-alive connection, the next request only after the
// previous reply's body has been read to the end. It multiplexes many
// virtual devices; there is no think or train time between their requests.
type client struct {
	hc   *http.Client
	base string
	t    *tracer
	// buf is the reused drain buffer; a reply's body aliases it until the
	// next request.
	buf []byte

	tally
}

// tally is what a client measures, and what several clients' or several
// phases' measurements sum to.
type tally struct {
	lats      [numOps][]lat
	attempted int64
	failed    int64
	requests  int64 // completed HTTP exchanges, whatever their status
	sent      int64 // request body bytes
	recv      int64 // response body bytes
	busy      time.Duration
}

func (t *tally) add(o *tally) {
	for op := range t.lats {
		t.lats[op] = append(t.lats[op], o.lats[op]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.requests += o.requests
	t.sent += o.sent
	t.recv += o.recv
	t.busy += o.busy
}

func newClient(base string, t *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
		t:    t,
		buf:  make([]byte, 1<<20),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reset drops everything measured so far (the end of warm-up).
func (c *client) reset() {
	lats := c.lats
	for i := range lats {
		lats[i] = lats[i][:0]
	}
	c.tally = tally{lats: lats}
}

type reply struct {
	status int
	header http.Header
	body   []byte
}

// do sends one request and drains the reply. hdr lists header key/value
// pairs. A transport error counts as a failed operation and is returned; the
// caller classifies statuses with expect.
func (c *client) do(op int, method, path string, body []byte, hdr ...string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	var trace uint64
	if c.t.enabled() {
		trace = c.t.nextID.Add(1)
		req.Header.Set(hdrTrace, strconv.FormatUint(trace, 10))
	}
	c.attempted++
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed++
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	n := 0
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
		m, rerr := resp.Body.Read(c.buf[n:])
		n += m
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			resp.Body.Close()
			c.failed++
			return reply{}, fmt.Errorf("%s %s: read body: %w", method, path, rerr)
		}
	}
	resp.Body.Close()
	t1 := time.Now()
	d := t1.Sub(t0)
	c.lats[op] = append(c.lats[op], satNS(d))
	c.busy += d
	c.requests++
	c.sent += int64(len(body))
	c.recv += int64(n)
	if trace != 0 {
		c.t.record(trace, layerClient, op, t0, t1)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: c.buf[:n]}, nil
}

// pollTask fetches a device's task, polling through 204s: in the round
// workloads the new version is visible a moment before its round opens (and a
// shard installing the tier's global has no round yet), so an empty poll is
// part of the protocol. Each poll is a timed task request.
func (c *client) pollTask(device string, hdr []string) (reply, error) {
	for tries := 0; ; tries++ {
		r, err := c.do(opTask, http.MethodGet, "/v1/task?device="+device, nil, hdr...)
		if err != nil {
			return reply{}, err
		}
		if r.status != http.StatusNoContent {
			if !c.expect(r, http.StatusOK) {
				return reply{}, fmt.Errorf("task for device %s: status %d: %s", device, r.status, r.body)
			}
			return r, nil
		}
		if tries > 10_000 {
			return reply{}, fmt.Errorf("device %s starved of a task", device)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// expect counts the reply as a failed operation unless its status is one of
// want, and reports whether it was.
func (c *client) expect(r reply, want ...int) bool {
	for _, w := range want {
		if r.status == w {
			return true
		}
	}
	c.failed++
	return false
}

// drain sums what the clients measured since their last reset and resets
// them.
func drain(cs ...*client) tally {
	var t tally
	for _, c := range cs {
		t.add(&c.tally)
		c.reset()
	}
	return t
}
