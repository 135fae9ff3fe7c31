package dvlib

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"simfs/internal/netproto"
)

// redialTimeout bounds one reconnect attempt (TCP connect + hello).
const redialTimeout = 2 * time.Second

// replayCall is an in-flight idempotent call spared by a reconnect,
// under the request ID the table holds it at (the caller's own p.id
// store may still be in flight when the sweep finds the call).
type replayCall struct {
	id uint64
	p  *pendingCall
}

// tryReconnect is the read loop's recovery path: redial with backoff,
// re-handshake, rebuild the reference state and replay what can be
// replayed. It reports whether the read loop should continue on the new
// connection. Runs only on the readLoop goroutine.
func (c *Client) tryReconnect() bool {
	c.mu.Lock()
	if c.closed || c.dialCfg.reconnect == nil || c.readErr != nil {
		c.mu.Unlock()
		return false
	}
	cfg := *c.dialCfg.reconnect
	c.reconnecting = true

	// Partition the in-flight requests. Idempotent calls (the op table
	// says which) ride through: their frames are replayed below. The
	// other calls fail with the typed error so the caller decides — the
	// client cannot know whether they landed. Watches are re-subscribed
	// after the handshake; acquires (ledger.holds) fail typed.
	var replay []replayCall
	var watches []*ledger
	c.calls.Sweep(func(id uint64, h netproto.ResponseHandler) bool {
		switch h := h.(type) {
		case *pendingCall:
			if netproto.Ops[h.env.Row()].Idempotent { // every op dvlib sends has a row
				replay = append(replay, replayCall{id, h})
				return false
			}
			h.answer(fmt.Errorf("dvlib: %s: %w", h.env.Op, ErrReconnecting))
		case *ledger:
			if !h.holds {
				h.id = id // stream may not have recorded it yet
				watches = append(watches, h)
				return false
			}
			go h.HandleResponse(&netproto.Response{ID: id, Err: ErrReconnecting.Error(), Done: true})
		case *notice:
			// The open's reference is replayed below, its notice is not:
			// WaitAvailable asks the daemon afresh.
			h.HandleResponse(&netproto.Response{ID: id, Err: ErrReconnecting.Error(), Done: true})
		}
		return true
	})
	sort.Slice(replay, func(i, j int) bool { return replay[i].id < replay[j].id })

	held := make(map[string]map[string]int, len(c.held))
	for ctxName, files := range c.held {
		m := make(map[string]int, len(files))
		for f, n := range files {
			m[f] = n
		}
		held[ctxName] = m
	}
	old := c.conn
	c.mu.Unlock()

	old.Close()
	// Out of budget (or closed), the requests spared above die with the
	// client: the read loop's die fails whatever the table still holds.
	conn := c.redial(cfg)
	if conn != nil {
		c.replay(conn, held, watches, replay)
	}
	c.mu.Lock()
	c.reconnecting = false
	c.recCond.Broadcast()
	c.mu.Unlock()
	return conn != nil
}

// redial loops dial + hello with jittered exponential backoff until it
// succeeds, the budget runs out, or the client closes. On success the
// fresh connection is installed — frames batched before the reset died
// with the old one's buffer; every surviving request is replayed from
// its body — and returned.
//
//simfs:allow wallclock reconnect backoff paces real network dials, not simulation
func (c *Client) redial(cfg ReconnectConfig) *netproto.Conn {
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	delay := cfg.BaseBackoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			d := delay
			if cfg.Jitter > 0 {
				d = time.Duration(float64(d) * (1 + cfg.Jitter*(2*rng.Float64()-1)))
			}
			time.Sleep(d)
			if delay *= 2; delay > cfg.MaxBackoff {
				delay = cfg.MaxBackoff
			}
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed || time.Since(start) > cfg.MaxElapsed {
			return nil
		}
		// IDs stay monotonic across reconnects: in-flight calls keep
		// theirs for replay, so the hello takes a fresh one.
		ctx, cancel := context.WithTimeout(context.Background(), redialTimeout)
		conn, info, err := netproto.Dial(ctx, c.addr, c.calls.NextID(), c.hello())
		cancel()
		if err != nil {
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil
		}
		c.conn, c.info = conn, info
		c.mu.Unlock()
		return conn
	}
}

// replay rebuilds daemon-side session state on the fresh connection, in
// dependency order: the reference ledger first (re-opening restarts the
// re-simulations waits depend on), then watch re-subscriptions, then the
// surviving in-flight calls in their original order. New requests are
// still gated, so everything lands in one coalesced write.
func (c *Client) replay(conn *netproto.Conn, held map[string]map[string]int, watches []*ledger, replay []replayCall) {
	enc := func(id uint64, env netproto.Envelope) {
		env.ID = id
		_ = conn.EnqueueRequest(&env) // an unencodable frame was refused the first time too
	}
	for ctxName, files := range held {
		for f, n := range files {
			for i := 0; i < n; i++ {
				// Fire-and-forget: the responses are dropped as unknown.
				// The ledger already counts these references; a failure
				// here surfaces on the next wait/open of the file.
				enc(c.calls.NextID(), netproto.NewFileEnvelope(0, netproto.OpOpen,
					netproto.FileBody{Context: ctxName, File: f}))
			}
		}
	}
	for _, w := range watches {
		// Re-armed (or dropped) under mu, like ledger.cancel finds it: a
		// concurrent Cancel either ended the watch first or unsubscribes
		// the new ID.
		c.mu.Lock()
		rem := w.remaining()
		c.calls.Remove(w.id)
		if len(rem) > 0 {
			// Never refused: only die fails the table, and it runs on
			// this goroutine.
			w.id, _ = c.calls.Add(w, true)
		}
		id := w.id
		c.mu.Unlock()
		if len(rem) == 0 {
			// Every file resolved before the reset; only the final Done
			// frame was lost. Synthesize it (a canceled watch drops it).
			go w.HandleResponse(&netproto.Response{Done: true})
			continue
		}
		enc(id, newEnv(netproto.OpSubscribe, netproto.FilesBody{Context: w.ctx.name, Files: rem}))
	}
	for _, r := range replay {
		enc(r.id, r.p.env)
	}
	_ = c.flushOn(conn)
}
