package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptrace"
	"time"

	"irred/internal/service"
)

// errChaosDrop marks a hop the fault injector swallowed; it behaves like
// any other transport error (retry, then failover).
var errChaosDrop = errors.New("cluster: hop dropped by fault injector")

// newClusterUID mints the idempotency token a routing node stamps into a
// forwarded spec. The same UID rides every retry and every failover of
// one client submission, so the owner-side dedupe collapses duplicates
// (a broken wait connection, a replayed job) into one execution.
func newClusterUID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived token; uniqueness only has to hold
		// within the dedupe window of in-flight jobs.
		n, _ := rand.Int(rand.Reader, big.NewInt(1<<62))
		return fmt.Sprintf("u%x-%x", time.Now().UnixNano(), n)
	}
	return hex.EncodeToString(b[:])
}

// hopResult is one attempt against one target.
type hopResult struct {
	resp    *http.Response
	err     error
	reqSent bool // a connection was established before the error
}

// doHop performs one HTTP exchange with peer `to`, routed through the
// fault injector's network model first: a partitioned or dropped hop
// never touches the wire, a delayed hop sleeps before sending. reqSent
// reports whether a TCP connection was obtained — the signal that
// distinguishes "target is down, nothing happened" from "target died
// holding our job", which is what separates a plain failover from a
// replay.
func (n *Node) doHop(ctx context.Context, to, method, url string, body []byte, attempt int, timeout time.Duration) hopResult {
	if f := n.cfg.Chaos.Hop(n.cfg.Self, to, attempt); f.Drop {
		return hopResult{err: errChaosDrop}
	} else if f.Delay > 0 {
		select {
		case <-time.After(f.Delay):
		case <-ctx.Done():
			return hopResult{err: ctx.Err()}
		}
	}
	hctx, cancel := context.WithTimeout(ctx, timeout)
	sent := false
	hctx = httptrace.WithClientTrace(hctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { sent = true },
	})
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(hctx, method, url, rd)
	if err != nil {
		cancel()
		return hopResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Irred-Forward", "1")
	req.Header.Set("X-Irred-From", n.cfg.Self)
	resp, err := n.client.Do(req)
	if err != nil {
		cancel()
		return hopResult{err: err, reqSent: sent}
	}
	// The caller owns the body; cancel when it is drained.
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return hopResult{resp: resp, reqSent: sent}
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// forward proxies a job submission along the failover order. For each
// target it retries up to HopRetries times with jittered backoff, then
// abandons the target for its ring successor. A target that died after
// receiving the request counts the eventual success as a replay: the
// job's UID makes the resubmission idempotent, and the successor either
// seeds from the replicated checkpoint or recomputes deterministically —
// the client sees neither.
//
// Terminal HTTP statuses stop the walk: 2xx and 4xx come from a healthy
// owner deciding, and retrying them elsewhere would only duplicate work
// or mask a bad request. 5xx and transport errors move on.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, order []string, body []byte, spec service.JobSpec) {
	tr := n.trace
	start := tr.Begin()
	ctx := r.Context()
	anyAccepted := false // some target got the request before dying
	failedOver := false
	for ti, target := range order {
		if target == n.cfg.Self {
			// Self as last resort: everything remote is unreachable, so
			// run the job here rather than fail the client. Counted
			// before the answer, like a relayed one.
			if failedOver {
				n.ctrs.failovers.Add(1)
				if anyAccepted {
					n.ctrs.replays.Add(1)
					tr.Event(spanFailover, -1, -1, -1, -1)
				}
			}
			n.serveLocal(w, r, spec)
			tr.End(spanForward, -1, -1, -1, -1, start)
			return
		}
		if ti < len(order)-1 {
			if n.table.state(target) == PeerDead {
				// Known-dead: don't burn retries, move straight to the
				// successor. This is a failover, not a route-around.
				failedOver = true
				continue
			}
			if n.table.notReady(target) {
				continue // draining peer: route around it silently
			}
		}
		url := n.table.url(target) + r.URL.RequestURI()
		for attempt := 0; attempt <= n.cfg.HopRetries; attempt++ {
			if attempt > 0 {
				n.ctrs.forwardRetries.Add(1)
				select {
				case <-time.After(backoff(attempt)):
				case <-ctx.Done():
					writeGatewayError(w, "client gone during forward retry")
					return
				}
			}
			hr := n.doHop(ctx, target, http.MethodPost, url, body, attempt, n.hopTimeout(r))
			if hr.err != nil {
				if hr.reqSent {
					anyAccepted = true
				}
				if ctx.Err() != nil {
					writeGatewayError(w, "client gone during forward")
					return
				}
				continue
			}
			if hr.resp.StatusCode >= 500 {
				// The target answered but can't serve (closing, internal
				// fault). Drain and try again / fail over.
				io.Copy(io.Discard, hr.resp.Body)
				hr.resp.Body.Close()
				anyAccepted = true
				continue
			}
			// Terminal answer: count it, then relay it. Counted first, so
			// a client that has read the answer sees it in /metrics too.
			n.ctrs.forwards.Add(1)
			if failedOver {
				n.ctrs.failovers.Add(1)
				if anyAccepted {
					n.ctrs.replays.Add(1)
					tr.Event(spanFailover, -1, -1, -1, -1)
				}
			}
			relayResponse(w, hr.resp, target)
			tr.End(spanForward, -1, -1, -1, -1, start)
			return
		}
		// Target exhausted its retries: mark it missed so gossip converges
		// faster, and move to the ring successor.
		n.table.observeFailure(target)
		failedOver = true
	}
	writeGatewayError(w, "no cluster member could run the job")
}

// relayResponse copies the target's answer to the client, stamping the
// serving node. A copy that breaks mid-body leaves the client a truncated
// answer; the headers already went out, so there is no one to report to.
func relayResponse(w http.ResponseWriter, resp *http.Response, target string) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Irred-Node", target)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func writeGatewayError(w http.ResponseWriter, msg string) {
	writeError(w, http.StatusBadGateway, msg)
}

// backoff is the jittered retry delay for attempt n (1-based): equal
// jitter on an exponential base, capped well under a hop timeout so a
// full retry burst stays inside one gossip period.
func backoff(attempt int) time.Duration {
	base := 25 * time.Millisecond << (attempt - 1)
	if base > 400*time.Millisecond {
		base = 400 * time.Millisecond
	}
	half := base / 2
	j, _ := rand.Int(rand.Reader, big.NewInt(int64(half)+1))
	return half + time.Duration(j.Int64())
}

// hopTimeout picks the per-attempt timeout: waiting submissions (?wait=1)
// hold the hop open for the whole job, so they get the long timeout;
// fire-and-forget submissions answer fast or not at all.
func (n *Node) hopTimeout(r *http.Request) time.Duration {
	if r.URL.Query().Get("wait") == "1" {
		return n.cfg.WaitHopTimeout
	}
	return n.cfg.HopTimeout
}
